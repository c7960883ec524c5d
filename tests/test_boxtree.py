"""Layered box structure: oracle equivalence, fan-out, split partition, space."""

import gc
import itertools
import math
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import colorfreq as cf
from _util import canon, layer_half, random_query, reference_1d
from colorfreq import boxes, dominance
from colorfreq.core import count_le, count_lt, rank_order
from colorfreq.freq1d import _sort_charge

INF = float("inf")


def test_no_layers_is_a_dominance_tree():
    ps = cf.generate_points(120, 2, 8, seed=1)
    bt = cf.build_box(ps, s=4, bounded_axes=())
    dt = cf.build_dominance(ps, 2, s=4)
    # the box is tree 0 of a forest of one
    assert bt.levels == () and isinstance(bt.forest, cf.DominanceTree)
    assert bt.forest.start == (0, ps.n)
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


def reference_layer(n):
    """The layer's split tree over ranks [0, n), split recursively as it is
    defined: {(lo, hi): (mid, depth)} in preorder, mid None at a leaf."""
    nodes = {}

    def split(lo, hi, depth):
        mid = (lo + hi) // 2 if hi - lo > boxes._LAYER_LEAF else None
        nodes[lo, hi] = mid, depth
        if mid is not None:
            split(lo, mid, depth + 1)
            split(mid, hi, depth + 1)

    split(0, n, 0)
    return nodes


def test_split_partition_at_located_node():
    # materialize both sides of the split and compare with the node's points
    ps = cf.generate_points(64, 2, 6, seed=12)
    bt = cf.build_box(ps, s=2, bounded_axes=(0,))
    level = bt.levels[0]
    nodes = reference_layer(ps.n)
    rng = np.random.default_rng(13)
    for _ in range(40):
        x1, x2 = sorted(rng.uniform(0, 1000, 2))
        y = float(rng.uniform(0, 1000))
        node, _ = boxes._locate(level.vals, 0, ps.n, x1, x2)
        if node is None or nodes[node][0] is None:
            continue
        lo, hi = node
        mid = nodes[node][0]
        coords = level.coords
        in_node = [
            p for p in range(lo, hi)
            if x1 <= coords[p, 0] <= x2 and coords[p, 1] <= y
        ]
        left = [
            p for p in range(lo, mid)
            if coords[p, 0] >= x1 and coords[p, 1] <= y
        ]
        right = [
            p for p in range(mid, hi)
            if coords[p, 0] <= x2 and coords[p, 1] <= y
        ]
        assert sorted(left + right) == in_node  # disjoint union, no overlap


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 33])
def test_locate_matches_its_definition(n):
    # every closed range over the coordinates (duplicates included) and the gaps
    ps = cf.generate_points(n, 2, 3, seed=n, grid=max(n // 2, 1))
    vals = cf.build_box(ps, s=2, bounded_axes=(0,)).levels[0].vals
    nodes = reference_layer(n)
    values = sorted(set(vals.tolist()))
    probes = sorted(set(values) | {v + 0.5 for v in values} | {-1.0})
    for x1 in probes:
        for x2 in probes:
            rlo = count_lt(vals, x1)
            rhi = count_le(vals, x2)
            node, steps = boxes._locate(vals, 0, n, x1, x2)
            if rlo >= rhi:
                assert node is None and steps == 0
                continue
            # the nodes holding the ranks, from the root down (preorder)
            holding = [(lo, hi) for lo, hi in nodes if lo <= rlo and rhi <= hi]
            split = [v for v in holding if nodes[v][0] is not None and rlo < nodes[v][0] < rhi]
            if split:
                assert node == split[0]
                assert steps == nodes[node][1] + 1
            else:
                leaves = [v for v in holding if nodes[v][0] is None]
                assert len(leaves) == 1 and node == leaves[0]
                assert steps == nodes[node][1]


def test_locate_reads_a_layer_slice_of_its_level():
    # a layer of level 1 locates in its slice of the level's rank values as
    # it would in rank values of its own; negated parts hold negative values
    ps = cf.generate_points(40, 2, 3, seed=3, grid=10)
    level = cf.build_box(ps, s=2, bounded_axes=(0, 1)).levels[1]
    probes = [-11.0, -3.0, -1.0, 0.0, 2.5, 3.0, 7.0, 11.0]
    for t in range(len(level.start) - 1):
        off, end = level.start[t], level.start[t + 1]
        alone = level.vals[off:end]
        for x1, x2 in itertools.combinations_with_replacement(probes, 2):
            assert boxes._locate(level.vals, off, end, x1, x2) == \
                boxes._locate(alone, 0, end - off, x1, x2)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.0, 1e300, -1e300, 5e-324]) |
                st.floats(allow_nan=False), max_size=40),
       st.data())
def test_ranked_groups_rank_each_signed_group_on_its_own(xs, data):
    # overlapping groups of tie-heavy values, some negated: each in the
    # order rank_order gives its signed values alone
    values = np.array(xs, dtype=np.float64)
    n = len(values)
    rows = 100 + np.arange(n)
    groups = data.draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n),
                                          st.sampled_from([1.0, -1.0])), max_size=6))
    start = np.array([min(a, b) for a, b, _ in groups], dtype=np.int64)
    size = np.array([abs(a - b) for a, b, _ in groups], dtype=np.int64)
    sign = np.array([g for _, _, g in groups])
    want = [rows[a:a + m][rank_order(g * values[a:a + m])] for a, m, g in zip(start, size, sign)]
    got = boxes._ranked_groups(rows, start, size, values, sign)
    assert got.tolist() == np.concatenate([np.zeros(0, dtype=np.int64)] + want).tolist()
    # one group of all the rows, signed +1, is ranked in one step: the order
    # the general path gives it next to an empty group
    whole = boxes._ranked_groups(rows, np.array([0]), np.array([n]), values, np.ones(1))
    general = boxes._ranked_groups(rows, np.array([0, n]), np.array([n, 0]), values, np.ones(2))
    assert whole.tolist() == general.tolist() == rows[rank_order(values)].tolist()


def test_offline_3sided_counts_the_layer_nodes():
    for n in range(41):
        ps = cf.generate_points(n, 2, 3, seed=n)
        summary = cf.answer_offline_3sided(ps, [], 2)
        # no points, no layer
        assert summary.skeleton_nodes == (len(reference_layer(n)) if n else 0)


def test_offline_3sided_streams_nodes_breadth_first():
    # x = rank on 16 points: the layer splits at 8, then 4 and 12, then 2, 6,
    # 10 and 14, into leaves of two ranks; input order is the reverse of the
    # stream's, which is empty slabs, then nodes by (depth, lo), then y
    ps = cf.PointSet.from_points([((float(x), float(x % 5)), x % 3) for x in range(16)])
    boxes_by_qid = {
        "leaf [0,2)": (0.5, 1.0, 3.0),
        "depth 2 [12,16)": (12.0, 14.0, 3.0),
        "depth 2 [4,8)": (5.0, 6.0, 3.0),
        "depth 1 [8,16)": (9.0, 13.0, 3.0),
        "depth 1 [0,8)": (2.0, 5.0, 3.0),
        "root, y 9": (3.0, 12.0, 9.0),
        "root, y 2": (3.0, 12.0, 2.0),
        "empty": (20.0, 30.0, 3.0),
    }
    queries = [(qid, cf.BoxQuery([(x1, x2), (-INF, y)]))
               for qid, (x1, x2, y) in boxes_by_qid.items()]
    stream = []
    cf.answer_offline_3sided(ps, queries, 2, lambda qid, entries: stream.append((qid, entries)))
    assert [qid for qid, _ in stream] == [
        "empty", "root, y 2", "root, y 9", "depth 1 [0,8)", "depth 1 [8,16)",
        "depth 2 [4,8)", "depth 2 [12,16)", "leaf [0,2)",
    ]
    answers = dict(stream)
    for qid, q in queries:
        assert canon(answers[qid]) == canon(cf.brute_force(ps, q))


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
    # an axis is an integer, never truncated; numpy integers count
    for axes in ((0.7,), ("x",)):
        with pytest.raises(cf.ParameterError):
            cf.build_box(ps, s=2, bounded_axes=axes)
    assert cf.build_box(ps, s=2, bounded_axes=(np.int64(1),)).bounded_axes == (1,)
    with pytest.raises(cf.ParameterError):
        cf.build_box(ps, s=2.0, bounded_axes=(0,))


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


def _last_root_strip(parent):
    """The start of the root's last strip: the largest rank whose parent is 0."""
    return max(c for c in range(1, len(parent)) if parent[c] == 0)


def _fill_one_by_one(forest):
    """Each strip built on its own over the same skeletons, a d = 2 one by
    the one-by-one 1-D build; each strip's index stays 0, as a one-range
    structure or a forest of one."""
    for off, parent in zip(forest.start, forest.parent):
        for c in range(1, len(parent)):
            lo, cut = off + parent[c], off + c
            if forest.d == 2:
                sub = reference_1d(forest.coords_r[lo:cut, 1], forest.colors_r[lo:cut],
                                   forest.weights_r[lo:cut].tolist(), forest.mode)
                forest.stored_entries += sub.stored_entries
                forest.build_ops += sub.build_ops
            else:
                sub = forest._build_substructure(np.array([lo]), np.array([cut]))
            forest.prefix[cut] = sub


@pytest.mark.parametrize("d, mode_name, chunk", [
    (2, "count", None), (2, "semigroup", 500), (3, "count", 500), (3, "semigroup", None),
])
def test_batched_box_counters_match_one_by_one_build(d, mode_name, chunk):
    # two-sided on axes 0 and 1, as `--sides 2,2` builds; a 500-entry chunk
    # makes many blocks, and strips of more than 500 entries blocks of their own
    n = 700 if d == 2 else 160
    base = cf.generate_points(n, d, 30, seed=11 + d, grid=n // 2)
    rng = np.random.default_rng(12)
    if mode_name == "count":
        ps = cf.PointSet(base.coords, base.colors, rng.integers(-2, 4, n))
    else:
        ps = cf.PointSet(base.coords, base.colors, rng.integers(0, 50, n).tolist(),
                         mode=cf.MAX_SEMIGROUP)
    with mock.patch.object(dominance, "_BATCH_CHUNK", chunk or dominance._BATCH_CHUNK):
        batched = cf.build_box(ps, s=4, bounded_axes=(0, 1))
    with mock.patch.object(boxes, "_fill", _fill_one_by_one), \
            mock.patch.object(dominance, "_fill", _fill_one_by_one):
        single = cf.build_box(ps, s=4, bounded_axes=(0, 1))
    # the strips of one tree share one block
    level0, level1 = batched.levels
    forest, t = batched.forest, level1.full_high[level0.full_high[0]]
    if d == 3:
        g = forest.start[t] + _last_root_strip(forest.parent[t])
        forest, t = forest.prefix[g], forest.index[g]
    off, parent = forest.start[t], forest.parent[t]
    assert len({id(forest.prefix[off + c]) for c in range(1, len(parent))}) < len(parent) - 1
    assert batched.stored_entries == single.stored_entries
    assert batched.build_ops == single.build_ops
    s1, s2 = batched.new_session(), single.new_session()
    for _ in range(150):
        q = random_query(rng, d, sides=(2, 2) + (1,) * (d - 2), lo=-10, hi=n // 2 + 10)
        t1, t2 = s1.accumulator.touch_ops, s2.accumulator.touch_ops
        assert batched.query(q, s1) == single.query(q, s2)
        assert (s1.probes, s1.fanout, s1.substructure_queries) == \
            (s2.probes, s2.fanout, s2.substructure_queries)
        assert s1.accumulator.touch_ops - t1 == s2.accumulator.touch_ops - t2


def _build_one_by_one(self, ps, axes):
    """The layers built recursively, one sort and one copy per layer and
    part, each kept as a record of its columns and links, layer ids per
    level and tree ids in depth-first order, and each tree's part ranked on
    its own; then the records of each level laid out one after another:
    ``BoxTree._build``'s (levels, forest)."""
    parts, records = [], [[] for _ in axes]

    def build(coords, colors, weights, lv):
        if lv == len(axes):
            order = rank_order(coords[:, 0])
            parts.append((coords[order], colors[order], weights[order]))
            return len(parts) - 1
        axis, n = axes[lv], len(coords)
        order = rank_order(coords[:, axis])
        columns = coords[order], colors[order], weights[order]
        self.build_ops += _sort_charge(n)
        layer = len(records[lv])
        record = {"columns": columns, "low": [-1] * n, "high": [-1] * n}
        records[lv].append(record)
        nodes = [(0, n)]
        for lo, hi in nodes:  # grows while iterated: breadth-first
            mid = boxes._split_rank(lo, hi)
            if mid is not None:
                nodes += (lo, mid), (mid, hi)
                record["low"][mid] = build(*layer_half(*columns, axis, lo, mid, True), lv + 1)
                record["high"][mid] = build(*layer_half(*columns, axis, mid, hi, False), lv + 1)
        record["full"] = (build(*layer_half(*columns, axis, 0, n, True), lv + 1),
                          build(*layer_half(*columns, axis, 0, n, False), lv + 1))
        return layer

    build(ps.coords, ps.colors, ps.weights, 0)
    levels = []
    for axis, layers in zip(axes, records):
        coords, colors, weights = zip(*(r["columns"] for r in layers))
        coords = np.concatenate(coords)
        chain = itertools.chain.from_iterable
        levels.append(boxes._Level(
            axis, coords, np.concatenate(colors), np.concatenate(weights),
            array("d", coords[:, axis].tobytes()),
            array("q", itertools.accumulate(map(len, colors), initial=0)),
            array("q", chain(r["low"] for r in layers)), array("q", chain(r["high"] for r in layers)),
            array("q", [r["full"][0] for r in layers]), array("q", [r["full"][1] for r in layers]),
        ))
    coords, colors, weights = zip(*parts)
    return tuple(levels), cf.DominanceTree._forest(
        np.concatenate(coords), np.concatenate(colors), np.concatenate(weights),
        self.s, self.phi, self.mode, [len(c) for c in colors],
    )


def _assert_same_layers(got, want, lv=0, g=0, w=0):
    """Layer ``g`` of level ``lv`` of the box ``got`` and layer ``w`` of
    ``want`` hold equal columns and links, and their inner structures on
    every layer path are equal layers or equal forest trees."""
    forest, ref_forest = got.forest, want.forest
    if lv == len(want.levels):
        if forest.d == 1:
            a, b = forest.base, ref_forest.base
            (i, j), (k, e) = a.start[g:g + 2], b.start[w:w + 2]
            assert (list(a.sorted_values[i:j]), list(a.colors[i:j]), list(a.prefix_weight[i:j])) \
                == (list(b.sorted_values[k:e]), list(b.colors[k:e]), list(b.prefix_weight[k:e]))
            return
        (a, b), (c, e) = forest.start[g:g + 2], ref_forest.start[w:w + 2]
        assert np.array_equal(forest.coords_r[a:b], ref_forest.coords_r[c:e])
        assert np.array_equal(forest.colors_r[a:b], ref_forest.colors_r[c:e])
        assert np.array_equal(forest.weights_r[a:b], ref_forest.weights_r[c:e])
        assert forest.sorted0[a:b] == ref_forest.sorted0[c:e]
        assert forest.parent[g] == ref_forest.parent[w]
        return
    mine, ref = got.levels[lv], want.levels[lv]
    (a, b), (c, e) = mine.start[g:g + 2], ref.start[w:w + 2]
    assert mine.axis == ref.axis
    assert np.array_equal(mine.coords[a:b], ref.coords[c:e])
    assert np.array_equal(mine.colors[a:b], ref.colors[c:e])
    assert np.array_equal(mine.weights[a:b], ref.weights[c:e]) and mine.vals[a:b] == ref.vals[c:e]
    pairs = [(mine.full_low[g], ref.full_low[w]), (mine.full_high[g], ref.full_high[w])]
    for mid in range(e - c):
        if ref.inner_low[c + mid] < 0:
            assert mine.inner_low[a + mid] == mine.inner_high[a + mid] == -1
        else:
            pairs += ((mine.inner_low[a + mid], ref.inner_low[c + mid]),
                      (mine.inner_high[a + mid], ref.inner_high[c + mid]))
    for x, y in pairs:
        _assert_same_layers(got, want, lv + 1, x, y)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("mode", [cf.COUNT, cf.MAX_SEMIGROUP])
def test_layers_built_by_level_match_one_by_one_build(d, mode):
    # grid data: duplicate coordinates on every axis, so ties decide orders
    rng = np.random.default_rng(30 + d)
    for n in (0, 1, 2, 3, 5, 17, 300):
        base = cf.generate_points(n, d, 7, seed=n + d, grid=max(n // 8, 2))
        if mode is cf.COUNT:
            ps = cf.PointSet(base.coords, base.colors, rng.integers(-2, 4, n))
        else:
            ps = cf.PointSet(base.coords, base.colors, rng.integers(0, 50, n).tolist(), mode=mode)
        for t in range(d + 1):
            for axes in itertools.combinations(range(d), t):
                by_level = cf.build_box(ps, s=4 if n >= 4 else 2, bounded_axes=axes)
                with mock.patch.object(boxes.BoxTree, "_build", _build_one_by_one):
                    single = cf.build_box(ps, s=4 if n >= 4 else 2, bounded_axes=axes)
                assert by_level.stored_entries == single.stored_entries
                assert by_level.build_ops == single.build_ops
                assert len(by_level.forest.start) == len(single.forest.start)
                for level, ref in zip(by_level.levels, single.levels, strict=True):
                    rows = len(ref.coords)
                    assert len(level.start) == len(ref.start) and level.start[-1] == rows
                    assert len(level.vals) == len(level.inner_low) == len(level.inner_high) == rows
                _assert_same_layers(by_level, single)
                s1, s2 = by_level.new_session(), single.new_session()
                for _ in range(30 if n < 300 else 60):
                    sides = [2 if a in axes and rng.random() < 0.8 else 1 for a in range(d)]
                    q = random_query(rng, d, sides, lo=-1, hi=max(n // 8, 2) + 1)
                    t1, t2 = s1.accumulator.touch_ops, s2.accumulator.touch_ops
                    assert by_level.query(q, s1) == single.query(q, s2)
                    assert (s1.probes, s1.fanout, s1.substructure_queries) == \
                        (s2.probes, s2.fanout, s2.substructure_queries)
                    assert s1.accumulator.touch_ops - t1 == s2.accumulator.touch_ops - t2


@pytest.mark.parametrize("axes", [(0,), (0, 1)])
def test_forest_trees_are_ranked_as_skeletons_of_their_own(axes):
    # one sort for the whole forest must give each tree the order of its
    # own rank_order: duplicate coordinates tie by input order, and a low
    # half negates the first axis when axis 0 has a layer
    ps = cf.generate_points(200, 2, 5, seed=21, grid=12, mode=cf.MAX_SEMIGROUP)
    bt = cf.build_box(ps, s=4, bounded_axes=axes)
    forest, seen = bt.forest, []

    def visit(lv, t, coords, colors, weights):
        if lv == len(bt.levels):
            ref = cf.DominanceTree._forest(coords, colors, weights, 4, ps.phi, ps.mode)
            a, b = forest.start[t], forest.start[t + 1]
            assert np.array_equal(forest.coords_r[a:b], ref.coords_r)
            assert np.array_equal(forest.colors_r[a:b], ref.colors_r)
            assert np.array_equal(forest.weights_r[a:b], ref.weights_r)
            assert forest.sorted0[a:b] == ref.sorted0
            assert forest.parent[t] is ref.parent[0]
            seen.append(t)
            return
        level = bt.levels[lv]
        off, n = level.start[t], level.start[t + 1] - level.start[t]
        columns = level.coords[off:off + n], level.colors[off:off + n], level.weights[off:off + n]
        nodes = [(0, n)]
        for lo, hi in nodes:
            mid = boxes._split_rank(lo, hi)
            if mid is not None:
                nodes += (lo, mid), (mid, hi)
                visit(lv + 1, level.inner_low[off + mid],
                      *layer_half(*columns, level.axis, lo, mid, True))
                visit(lv + 1, level.inner_high[off + mid],
                      *layer_half(*columns, level.axis, mid, hi, False))
        visit(lv + 1, level.full_low[t], *layer_half(*columns, level.axis, 0, n, True))
        visit(lv + 1, level.full_high[t], *layer_half(*columns, level.axis, 0, n, False))

    visit(0, 0, ps.coords, ps.colors, ps.weights)
    assert sorted(seen) == list(range(len(forest.parent)))


def test_box_build_makes_one_block_per_chunk(monkeypatch):
    ps = cf.generate_points(400, 2, 16, seed=9, mode=cf.MAX_SEMIGROUP)
    forests, chunks = [], []
    real_fill, real_chunks = boxes._fill, dominance._strip_chunks

    def keeping(forest):
        forests.append(forest)
        real_fill(forest)

    def counting(forest):
        for chunk in real_chunks(forest):
            chunks.append(chunk)
            yield chunk

    monkeypatch.setattr(boxes, "_fill", keeping)
    monkeypatch.setattr(dominance, "_strip_chunks", counting)
    monkeypatch.setattr(dominance, "_BATCH_CHUNK", 2000)
    bt = cf.build_box(ps, s=8, bounded_axes=(0, 1))
    forest, = forests
    strips = [forest.prefix[off + c]
              for off, parent in zip(forest.start, forest.parent) for c in range(1, len(parent))]
    assert len(strips) == sum(len(cut) for _, cut in chunks) > len(chunks) > 1
    assert len({id(f) for f in strips}) <= len(chunks)
    assert forest.stored_entries == bt.stored_entries


@pytest.mark.parametrize("mode", [cf.COUNT, cf.MAX_SEMIGROUP])
def test_box_build_keeps_few_tracked_objects(mode):
    # a `--sides 2,2` box keeps its skeletons as one forest and each level
    # of its layers as a few columns: objects for the cyclic collector to
    # track grow neither with its layers (513 for n = 500) nor with its
    # skeletons (about 10n), only with its blocks.  A first build in a
    # process leaves 163 (counts) and 124 (max weights), most of them the
    # blocks' arrays; 300 leaves room for the shape caches' first entries.
    n = 500
    ps = cf.generate_points(n, 2, 64, seed=1, mode=mode)
    gc.collect()
    old = gc.get_objects()
    ids = set(map(id, old))
    bt = cf.build_box(ps, s=8, bounded_axes=(0, 1))
    gc.collect()
    new = [o for o in gc.get_objects() if id(o) not in ids]
    assert bt.stored_entries > 40 * n
    assert sum(len(level.start) - 1 for level in bt.levels) == boxes._node_count(n) + 2 == 513
    assert len(new) < 300
