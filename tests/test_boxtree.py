"""Layered box structure: oracle equivalence, fan-out, split partition, space."""

import math

import numpy as np
import pytest

import colorfreq as cf
from _util import canon, random_query
from colorfreq.core import count_le, count_lt

INF = float("inf")


def test_no_layers_is_a_dominance_tree():
    ps = cf.generate_points(120, 2, 8, seed=1)
    bt = cf.build_box(ps, s=4, bounded_axes=())
    dt = cf.build_dominance(ps, 2, s=4)
    assert isinstance(bt.top, cf.DominanceTree)
    assert bt.stored_entries == dt.stored_entries
    rng = np.random.default_rng(2)
    for _ in range(20):
        q = random_query(rng, 2, sides=(1, 1))
        assert canon(bt.query(q)) == canon(dt.query(q))


def test_three_sided_planar():
    rng = np.random.default_rng(3)
    ps = cf.generate_points(250, 2, 10, seed=4)
    bt = cf.build_box(ps, s=4, bounded_axes=(0,))
    assert bt.stored_entries <= cf.box_space_bound(250, 4, 2, 1)
    for _ in range(80):
        q = random_query(rng, 2, sides=(2, 1))
        assert canon(bt.query(q)) == canon(cf.brute_force(ps, q))


def test_four_sided_rectangles_random():
    rng = np.random.default_rng(5)
    ps = cf.generate_points(1000, 2, 20, seed=6)
    bt = cf.build_box(ps, s=4, bounded_axes=(0, 1))
    for _ in range(300):
        q = random_query(rng, 2, sides=(2, 2))
        assert canon(bt.query(q)) == canon(cf.brute_force(ps, q))


def test_whole_bounding_box_reports_all_totals():
    ps = cf.generate_points(150, 2, 9, seed=7)
    bt = cf.build_box(ps, s=4, bounded_axes=(0, 1))
    c = ps.coords
    q = cf.BoxQuery([(c[:, 0].min(), c[:, 0].max()), (c[:, 1].min(), c[:, 1].max())])
    totals = np.bincount(ps.colors, minlength=ps.phi)
    assert canon(bt.query(q)) == tuple(
        (i, int(totals[i])) for i in range(ps.phi) if totals[i]
    )


def test_degenerate_range_hits_one_point():
    ps = cf.generate_points(60, 2, 60, seed=8)  # all colors distinct
    bt = cf.build_box(ps, s=2, bounded_axes=(0, 1))
    x, y = ps.coords[17]
    q = cf.BoxQuery([(x, x), (y, y)])
    assert canon(bt.query(q)) == ((int(ps.colors[17]), 1),)


def test_fanout_bound_per_query():
    rng = np.random.default_rng(9)
    ps = cf.generate_points(160, 3, 12, seed=10)
    bt = cf.build_box(ps, s=4, bounded_axes=(0, 1, 2))
    sess = bt.new_session()
    for _ in range(60):
        sides = tuple(int(x) for x in rng.integers(1, 3, 3))
        q = random_query(rng, 3, sides=sides)
        got = bt.query(q, sess)
        two_sided = sum(1 for v in sides if v == 2)
        assert sess.fanout <= cf.box_fanout_bound(two_sided)
        assert canon(got) == canon(cf.brute_force(ps, q))


def test_one_sided_on_layered_axis_skips_split():
    ps = cf.generate_points(300, 2, 8, seed=11)
    bt = cf.build_box(ps, s=4, bounded_axes=(0, 1))
    sess = bt.new_session()
    q = cf.BoxQuery([(-INF, 500.0), (-INF, 500.0)])
    bt.query(q, sess)
    assert sess.fanout == 1
    q = cf.BoxQuery([(200.0, INF), (-INF, 500.0)])
    bt.query(q, sess)
    assert sess.fanout == 1


def test_split_partition_at_located_node():
    # materialize both sides of the split and compare with the node's points
    ps = cf.generate_points(64, 2, 6, seed=12)
    bt = cf.build_box(ps, s=2, bounded_axes=(0,))
    layer = bt.top
    rng = np.random.default_rng(13)
    for _ in range(40):
        x1, x2 = sorted(rng.uniform(0, 1000, 2))
        y = float(rng.uniform(0, 1000))
        node, _ = layer.locate(x1, x2)
        if node is None or node.is_leaf:
            continue
        coords = layer.coords_r
        in_node = [
            p for p in range(node.lo, node.hi)
            if x1 <= coords[p, 0] <= x2 and coords[p, 1] <= y
        ]
        left = [
            p for p in range(node.lo, node.mid)
            if coords[p, 0] >= x1 and coords[p, 1] <= y
        ]
        right = [
            p for p in range(node.mid, node.hi)
            if coords[p, 0] <= x2 and coords[p, 1] <= y
        ]
        assert sorted(left + right) == in_node  # disjoint union, no overlap


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 33])
def test_locate_matches_its_definition(n):
    # every closed range over the coordinates (duplicates included) and the gaps
    ps = cf.generate_points(n, 2, 3, seed=n, grid=max(n // 2, 1))
    layer = cf.build_box(ps, s=2, bounded_axes=(0,)).top
    depth = {id(layer.nodes[0]): 0}
    for node in layer.nodes:
        if not node.is_leaf:
            depth[id(node.left)] = depth[id(node.right)] = depth[id(node)] + 1
    values = sorted(set(layer.sorted_vals.tolist()))
    probes = sorted(set(values) | {v + 0.5 for v in values} | {-1.0})
    for x1 in probes:
        for x2 in probes:
            rlo = count_lt(layer.sorted_vals, x1)
            rhi = count_le(layer.sorted_vals, x2)
            node, steps = layer.locate(x1, x2)
            if rlo >= rhi:
                assert node is None and steps == 0
                continue
            holding = [v for v in layer.nodes if v.lo <= rlo and rhi <= v.hi]
            split = [v for v in holding if not v.is_leaf and rlo < v.mid < rhi]
            if split:
                assert node is split[0]
                assert steps == depth[id(node)] + 1
            else:
                leaves = [v for v in holding if v.is_leaf]
                assert len(leaves) == 1 and node is leaves[0]
                assert steps == depth[id(node)]


def test_empty_slab_between_ranks():
    ps = cf.PointSet.from_points([((1.0, 1.0), 0), ((5.0, 2.0), 1), ((9.0, 3.0), 2)])
    bt = cf.build_box(ps, s=2, bounded_axes=(0,))
    q = cf.BoxQuery([(2.0, 4.0), (-INF, INF)])
    assert bt.query(q) == []


def test_semigroup_box_queries_no_subtraction():
    rng = np.random.default_rng(14)
    ps = cf.generate_points(200, 2, 7, seed=15, mode=cf.MAX_SEMIGROUP)
    bt = cf.build_box(ps, s=4, bounded_axes=(0, 1), mode=cf.MAX_SEMIGROUP)
    for _ in range(60):
        q = random_query(rng, 2)
        assert canon(bt.query(q)) == canon(cf.brute_force(ps, q))


def test_unsupported_shape_errors():
    ps = cf.generate_points(50, 2, 5, seed=16)
    bt = cf.build_box(ps, s=2, bounded_axes=(0,))
    with pytest.raises(cf.UnsupportedShapeError):
        bt.query(cf.BoxQuery([(-INF, 5.0), (1.0, 5.0)]))  # axis 1 has no layer
    with pytest.raises(cf.UnsupportedShapeError):
        bt.query(cf.BoxQuery([(-INF, 5.0), (1.0, INF)]))


def test_parameter_errors():
    ps = cf.generate_points(50, 2, 5, seed=17)
    with pytest.raises(cf.ParameterError):
        cf.build_box(ps, s=2, bounded_axes=(2,))
    with pytest.raises(cf.ParameterError):
        cf.build_box(ps, s=1, bounded_axes=(0,))


def test_entry_accounting_across_instances():
    for n in (2, 33, 200):
        for layers in ((0,), (0, 1)):
            ps = cf.generate_points(n, 2, 5, seed=n)
            bt = cf.build_box(ps, s=2, bounded_axes=layers)
            assert bt.stored_entries <= cf.box_space_bound(n, 2, 2, len(layers))


def test_all_sidedness_d1_to_d3():
    rng = np.random.default_rng(18)
    for d in (1, 2, 3):
        ps = cf.generate_points(150, d, 8, seed=20 + d, grid=60)
        bt = cf.build_box(ps, s=4, bounded_axes=tuple(range(d)))
        for _ in range(40):
            q = random_query(rng, d, lo=-5, hi=65)
            assert canon(bt.query(q)) == canon(cf.brute_force(ps, q))
