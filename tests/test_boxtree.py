"""Layered box structure: oracle equivalence, fan-out, split partition, space."""

import gc
import itertools
import math
from array import array
from unittest import mock

import numpy as np
import pytest

import colorfreq as cf
from _util import canon, random_query, reference_1d
from colorfreq import boxes, dominance
from colorfreq.core import count_le, count_lt, rank_order
from colorfreq.freq1d import _sort_charge

INF = float("inf")


def test_no_layers_is_a_dominance_tree():
    ps = cf.generate_points(120, 2, 8, seed=1)
    bt = cf.build_box(ps, s=4, bounded_axes=())
    dt = cf.build_dominance(ps, 2, s=4)
    # the box is tree 0 of a forest of one
    assert bt.top == 0 and isinstance(bt.forest, cf.DominanceTree)
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
    layer = bt.top
    nodes = reference_layer(ps.n)
    rng = np.random.default_rng(13)
    for _ in range(40):
        x1, x2 = sorted(rng.uniform(0, 1000, 2))
        y = float(rng.uniform(0, 1000))
        node, _ = layer.locate(x1, x2)
        if node is None or nodes[node][0] is None:
            continue
        lo, hi = node
        mid = nodes[node][0]
        coords = layer.coords_r
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
    layer = cf.build_box(ps, s=2, bounded_axes=(0,)).top
    nodes = reference_layer(n)
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
                                   forest.weights_r[lo:cut], forest.mode)
                forest.stored_entries += sub.entries
                forest.build_ops += sub.build_ops
            else:
                sub = forest._build_substructure(np.array([lo]), np.array([cut]),
                                                 forest.weights_r)
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
    forest, t = batched.forest, batched.top.full_high.full_high
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
    part, tree ids in depth-first order, and each tree's part ranked on
    its own: ``BoxTree._build``'s (top, forest)."""
    parts = []

    def build(coords, colors, weights, layer_axes):
        if not layer_axes:
            order = rank_order(coords[:, 0])
            parts.append((coords[order], colors[order], [weights[i] for i in order.tolist()]))
            return len(parts) - 1
        axis, rest = layer_axes[0], layer_axes[1:]
        n = len(coords)
        order = rank_order(coords[:, axis])
        layer = boxes._Layer(axis, coords[order], colors[order],
                             tuple(weights[i] for i in order.tolist()),
                             array("d", coords[order, axis].tobytes()))
        self.build_ops += _sort_charge(n)
        low, high = [None] * n, [None] * n
        nodes = [(0, n)]
        for lo, hi in nodes:  # grows while iterated: breadth-first
            mid = boxes._split_rank(lo, hi)
            if mid is not None:
                nodes += (lo, mid), (mid, hi)
                low[mid] = build(*layer.low_half(lo, mid), rest)
                high[mid] = build(*layer.high_half(mid, hi), rest)
        layer.inner_low, layer.inner_high = tuple(low), tuple(high)
        layer.full_low = build(*layer.low_half(0, n), rest)
        layer.full_high = build(*layer.high_half(0, n), rest)
        return layer

    top = build(ps.coords, ps.colors, ps.weight_list(), list(axes))
    coords, colors, weights = zip(*parts)
    return top, cf.DominanceTree._forest(
        np.concatenate(coords), np.concatenate(colors), list(itertools.chain.from_iterable(weights)),
        [len(c) for c in colors], self.s, self.phi, self.mode,
    )


def _assert_same_layers(got, want, forest, ref_forest):
    """The layers ``got`` and ``want`` hold equal columns, and their inner
    structures on every layer path are equal layers or equal forest trees."""
    if not isinstance(want, boxes._Layer):
        if forest.d == 1:
            a, b = forest.base, ref_forest.base
            (i, j), (k, e) = a.start[got:got + 2], b.start[want:want + 2]
            assert (list(a.sorted_values[i:j]), list(a.colors[i:j]), list(a.prefix_weight[i:j])) \
                == (list(b.sorted_values[k:e]), list(b.colors[k:e]), list(b.prefix_weight[k:e]))
            return
        (a, b), (c, e) = forest.start[got:got + 2], ref_forest.start[want:want + 2]
        assert np.array_equal(forest.coords_r[a:b], ref_forest.coords_r[c:e])
        assert np.array_equal(forest.colors_r[a:b], ref_forest.colors_r[c:e])
        assert forest.weights_r[a:b] == ref_forest.weights_r[c:e]
        assert forest.sorted0[a:b] == ref_forest.sorted0[c:e]
        assert forest.parent[got] == ref_forest.parent[want]
        return
    assert isinstance(got, boxes._Layer) and got.axis == want.axis
    assert np.array_equal(got.coords_r, want.coords_r)
    assert np.array_equal(got.colors_r, want.colors_r)
    assert got.weights_r == want.weights_r and got.sorted_vals == want.sorted_vals
    pairs = [(got.full_low, want.full_low), (got.full_high, want.full_high)]
    for mid, inner in enumerate(want.inner_low):
        if inner is None:
            assert got.inner_low[mid] is None and got.inner_high[mid] is None
        else:
            pairs += (got.inner_low[mid], inner), (got.inner_high[mid], want.inner_high[mid])
    assert len(got.inner_low) == len(got.inner_high) == len(want.inner_low)
    for g, w in pairs:
        _assert_same_layers(g, w, forest, ref_forest)


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
                _assert_same_layers(by_level.top, single.top, by_level.forest, single.forest)
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

    def visit(struct, coords, colors, weights):
        if not isinstance(struct, boxes._Layer):
            ref = cf.DominanceTree._skeleton(coords, colors, weights, 4, ps.phi, ps.mode)
            a, b = forest.start[struct], forest.start[struct + 1]
            assert np.array_equal(forest.coords_r[a:b], ref.coords_r)
            assert np.array_equal(forest.colors_r[a:b], ref.colors_r)
            assert forest.weights_r[a:b] == ref.weights_r
            assert forest.sorted0[a:b] == ref.sorted0
            assert forest.parent[struct] is ref.parent[0]
            seen.append(struct)
            return
        n = len(struct.sorted_vals)
        nodes = [(0, n)]
        for lo, hi in nodes:
            mid = boxes._split_rank(lo, hi)
            if mid is not None:
                nodes += (lo, mid), (mid, hi)
                visit(struct.inner_low[mid], *struct.low_half(lo, mid))
                visit(struct.inner_high[mid], *struct.high_half(mid, hi))
        visit(struct.full_low, *struct.low_half(0, n))
        visit(struct.full_high, *struct.high_half(0, n))

    visit(bt.top, ps.coords, ps.colors, ps.weight_list())
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
    # a `--sides 2,2` box keeps its skeletons as one forest and its layers'
    # weights and tree ids in tuples: objects for the cyclic collector to
    # track grow with its layers, two each (the layer and its rank values),
    # not with its skeletons (about 10n).  Over the 513 layers of n = 500
    # a build leaves 1,138 in the suite and up to 1,205 as a process's
    # first build (the 1-D blocks' columns, the shape caches' first
    # entries); 1,300 leaves about 8% above that.
    n = 500
    ps = cf.generate_points(n, 2, 64, seed=1, mode=mode)
    gc.collect()
    old = gc.get_objects()
    ids = set(map(id, old))
    bt = cf.build_box(ps, s=8, bounded_axes=(0, 1))
    gc.collect()
    new = [o for o in gc.get_objects() if id(o) not in ids]
    layers = sum(isinstance(o, boxes._Layer) for o in new)
    assert bt.stored_entries > 40 * n
    assert layers == boxes._node_count(n) + 2 == 513
    assert len(new) < 1300
