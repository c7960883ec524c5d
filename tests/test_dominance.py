"""Strip tree: oracle equivalence, accumulator contract, space and probe counters."""

import gc
import math
import sys
import threading
import tracemalloc
from array import array

import numpy as np
import pytest

import colorfreq as cf
from colorfreq import dominance, freq1d
from colorfreq.freq1d import _sort_charge
from _util import (
    FIGURE_ANSWER,
    FIGURE_QUERY,
    canon,
    chain_of,
    figure_instance,
    random_corner,
    walk_ranks,
)

TREE_BUILD_C = 2.0  # pinned; measured worst was ~0.7


def test_figure_example():
    t = cf.build_dominance(figure_instance(), 2, s=2)
    assert canon(t.query(FIGURE_QUERY)) == FIGURE_ANSWER


def test_corner_below_everything():
    t = cf.build_dominance(figure_instance(), 2, s=2)
    assert t.query(cf.BoxQuery.dominance((0.0, 0.0))) == []


def test_oracle_equivalence_random():
    rng = np.random.default_rng(100)
    for n in (1, 2, 17, 256):
        for d in (1, 2, 3):
            for s in (2, 4, 16, math.ceil(math.sqrt(n))):
                if not 2 <= s <= max(2, n):
                    continue
                phi = int(rng.integers(1, n + 1))
                ps = cf.generate_points(n, d, phi, seed=n * 31 + d * 7 + s, grid=3 * n)
                t = cf.build_dominance(ps, d, s=s)
                for _ in range(6):
                    q = random_corner(rng, d, lo=-10, hi=3 * n + 10)
                    assert canon(t.query(q)) == canon(cf.brute_force(ps, q))


def test_three_dimensional_batch_against_oracle():
    rng = np.random.default_rng(200)
    ps = cf.generate_points(200, 3, 10, seed=77)
    t = cf.build_dominance(ps, 3, s=4)
    sess = t.new_session()
    acc = sess.accumulator
    bound = cf.dominance_query_bound(200, 4, 3)  # (ceil_log_s(n)+1)^(d-1)
    for _ in range(50):
        q = random_corner(rng, 3)
        before = acc.touch_ops
        got = t.query(q, sess)
        assert canon(got) == canon(cf.brute_force(ps, q))
        assert sess.substructure_queries <= bound
        assert acc.touch_ops - before <= len(got) * bound


def test_d1_tree_is_the_1d_structure():
    pts = [(1.0, 0), (3.0, 0), (5.0, 0), (2.0, 1), (7.0, 1)]
    t = cf.build_dominance(cf.PointSet.from_points(pts), 1, s=2)
    f = cf.build_1d(pts)
    assert chain_of(t.base, 0) == chain_of(f.base, 0)
    assert chain_of(t.base, 1) == chain_of(f.base, 1)
    for q in (0.0, 2.5, 5.0, 9.0):
        assert canon(t.query((q,))) == canon(f.query((q,)))


def test_d1_forest_is_one_block():
    # a d = 1 box's bottom: many small trees, one block whose range t is
    # tree t
    ps = cf.generate_points(300, 1, 7, seed=31, grid=40)
    forest = cf.build_box(ps, s=2, bounded_axes=(0,)).forest
    sizes = np.diff(forest.start)
    assert isinstance(forest.base, cf.Frequency1D) and len(sizes) > 100
    assert np.diff(forest.base.start).tolist() == sizes.tolist()
    assert forest.stored_entries == forest.base.m == sum(sizes)


def test_single_point_tree():
    ps = cf.PointSet.from_points([((3.0, 4.0), 0)])
    t = cf.build_dominance(ps, 2, s=2)
    st = t.stats()
    assert st.node_count == 1 and st.height == 0 and st.stored_entries == 0
    assert canon(t.query((5.0, 5.0))) == ((0, 1),)


def test_sixteen_point_layout():
    ps = cf.generate_points(16, 2, 4, seed=9)
    t = cf.build_dominance(ps, 2, s=4)
    st = t.stats()
    assert st.height == 2  # log_4 16
    # the root's strips start at 4, 8 and 12, its first child's at 1, 2 and 3
    assert {c for c in range(1, 16) if t.parent[0][c] == 0} == {1, 2, 3, 4, 8, 12}
    assert st.stored_entries <= 16 * 3 * 3


def test_strip_sizes_balanced():
    ps = cf.generate_points(23, 2, 5, seed=10)
    t = cf.build_dominance(ps, 2, s=4)
    # the root's strips start at 0 and at the last s - 1 ranks whose parent is 0
    starts = [0] + [c for c in range(1, 23) if t.parent[0][c] == 0][-3:] + [23]
    sizes = [b - a for a, b in zip(starts, starts[1:])]
    assert sum(sizes) == 23
    assert max(sizes) - min(sizes) <= 1


def _reference_split(n, s):
    """The strip tree by its recursive definition, as (node count, height,
    build steps, {(node lo, start of a strip other than the node's first)})."""
    pairs = set()

    def node(lo, hi, depth):
        if hi - lo <= 1:
            return 1, depth, 1
        q, r = divmod(hi - lo, s)
        count, height, steps, pos = 1, 0, 0, lo
        for i in range(s):
            size = q + 1 if i < r else q
            if size == 0:
                break
            if i:
                pairs.add((lo, pos))
            c, h, o = node(pos, pos + size, depth + 1)
            count, height, steps = count + c, max(height, h), steps + o + 1
            pos += size
        return count, height, steps

    return (*node(0, n, 0), pairs) if n else (0, 0, 0, pairs)


def test_strip_tree_matches_its_definition():
    for n in range(301):
        ps = cf.PointSet(np.arange(2 * n, dtype=float).reshape(n, 2), [0] * n, [1] * n)
        for s in (2, 3, 4, 7, 16):
            t = cf.DominanceTree._forest(ps.coords, ps.colors, ps.weights, s, 1, cf.COUNT)
            count, height, steps, pairs = _reference_split(n, s)
            assert (t.node_count, t.height) == (count, height)
            assert t.build_ops == (_sort_charge(n) + steps if n else 0)
            assert {(t.parent[0][c], c) for c in range(1, n)} == pairs
            cut, hi = dominance._shape(n, s)[4:]
            ranks = np.arange(n)
            held = (cut[:, None] <= ranks) & (ranks < hi[:, None])  # strip i holds rank x
            for x in range(n):
                # the walk's ranges [parent[c], c) are non-empty and tile [0, x)
                walk = walk_ranks(t, x)
                ranges = [(t.parent[0][c], c) for c in walk]
                assert all(lo < c for lo, c in ranges)
                assert [lo for lo, _ in ranges] + [x] == [0] + [c for _, c in ranges]
                # rank c is on the walk to x exactly when its strip [c, hi) holds x
                assert sorted(cut[held[:, x]].tolist()) == walk


def test_strip_shape_is_computed_once_per_size():
    for n in range(65):
        ps = cf.PointSet(np.zeros((n, 2)), [0] * n, [1] * n)
        for s in (2, 3, 4, 16):
            parent, count, height, lo, cut, hi = dominance._shape(n, s)
            # one immutable tuple per size, whatever asks for it
            assert isinstance(parent, tuple) and dominance._shape(n, s)[0] is parent
            assert cf.DominanceTree._forest(ps.coords, ps.colors, ps.weights, s, 1,
                                            cf.COUNT).parent[0] is parent
            ref_count, ref_height, _, pairs = _reference_split(n, s)
            assert (count, height) == (ref_count, ref_height)
            assert {(parent[c], c) for c in range(1, n)} == pairs
            # the strips by parent rank, then by start
            strips = sorted((parent[c], c) for c in range(1, n))
            assert list(zip(lo.tolist(), cut.tolist())) == strips
            assert not (lo.flags.writeable or cut.flags.writeable or hi.flags.writeable)
    # the skeletons of one size in a box share one shape
    forest = cf.build_box(cf.generate_points(300, 2, 8, seed=3), s=4, bounded_axes=(0, 1)).forest
    shapes = {}
    for t, parent in enumerate(forest.parent):
        assert len(parent) == forest.start[t + 1] - forest.start[t]
        assert shapes.setdefault(len(parent), parent) is parent
    assert len(shapes) < len(forest.parent) // 100


def test_space_bounds_exact_accounting():
    for n in (2, 17, 100, 256, 1000):
        for d in (2, 3):
            for s in (2, 4, 16):
                if s > n:
                    continue
                ps = cf.generate_points(n, d, max(1, n // 7), seed=n + d + s)
                t = cf.build_dominance(ps, d, s=s)
                assert t.stored_entries <= cf.dominance_space_bound(n, s, d)


def test_build_ops_bound():
    for n in (16, 128, 512):
        for d in (2, 3):
            for s in (2, 8):
                ps = cf.generate_points(n, d, 10, seed=n * d * s)
                t = cf.build_dominance(ps, d, s=s)
                bound = (
                    TREE_BUILD_C
                    * n
                    * math.log2(n + 1)
                    * (s * (cf.ceil_log(s, n) + 1)) ** (d - 1)
                )
                assert t.build_ops <= bound


def test_probe_bounds_2d():
    rng = np.random.default_rng(42)
    for n, s in ((17, 2), (256, 4), (1000, 16), (1000, 2)):
        ps = cf.generate_points(n, 2, 12, seed=n + s)
        t = cf.build_dominance(ps, 2, s=s)
        sess = t.new_session()
        acc = sess.accumulator
        bound = cf.dominance_path_bound(n, s)
        for _ in range(25):
            before = acc.touch_ops
            got = t.query(random_corner(rng, 2), sess)
            k = len(got)
            assert sess.substructure_queries <= bound
            assert acc.touch_ops - before <= k * bound


def test_sessionless_queries_are_thread_safe():
    ps = cf.generate_points(3000, 2, 40, seed=71)
    tree = cf.build_dominance(ps, 2, s=8)
    rng = np.random.default_rng(72)
    queries = [random_corner(rng, 2) for _ in range(300)]
    expected = [canon(cf.brute_force(ps, q)) for q in queries]
    wrong = []

    def reader():
        for q, want in zip(queries, expected):
            try:
                if canon(tree.query(q)) != want:
                    wrong.append(q)
            except Exception as exc:  # noqa: BLE001 - a crash is a wrong answer too
                wrong.append((q, exc))

    threads = [threading.Thread(target=reader) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_doubling_entries_growth():
    e100 = cf.build_dominance(cf.generate_points(100, 2, 10, seed=2), 2, s=4).stored_entries
    e200 = cf.build_dominance(cf.generate_points(200, 2, 10, seed=3), 2, s=4).stored_entries
    assert e200 <= 2 * (1 + 1 / math.log(100, 4)) * e100


def test_stats_empty_tree_all_zeros():
    t = cf.DominanceTree(cf.PointSet.empty(2), s=2)
    st = t.stats()
    assert (st.stored_entries, st.height, st.node_count, st.build_ops) == (0, 0, 0, 0)
    assert t.query((1.0, 1.0)) == []


def test_parameter_validation():
    ps = cf.generate_points(10, 2, 3, seed=1)
    with pytest.raises(cf.ParameterError):
        cf.build_dominance(ps, 2, s=1)
    with pytest.raises(cf.ParameterError):
        cf.build_dominance(ps, 2, s=11)
    # a fanout is an integer, checked before the strip split; numpy integers count
    fifty = cf.generate_points(50, 2, 3, seed=1)
    for s in (2.5, 3.0, "2"):
        with pytest.raises(cf.ParameterError):
            cf.build_dominance(fifty, 2, s=s)
    q = cf.BoxQuery.dominance((1e9, 1e9))
    assert canon(cf.build_dominance(fifty, 2, s=np.int64(3)).query(q)) == canon(cf.brute_force(fifty, q))
    # n=1 still accepts the minimum fanout
    one = cf.generate_points(1, 3, 1, seed=2)
    assert cf.build_dominance(one, 3, s=2).stats().node_count == 1
    with pytest.raises(cf.MalformedInputError):
        cf.build_dominance(ps, 3, s=2)


def test_query_dimension_mismatch():
    t = cf.build_dominance(cf.generate_points(10, 2, 3, seed=1), 2, s=2)
    with pytest.raises(cf.MalformedQueryError):
        t.query((1.0, 2.0, 3.0))
    with pytest.raises(cf.MalformedQueryError):
        t.query(cf.BoxQuery([(0.0, 1.0), (-math.inf, 1.0)]))  # lower bound


# -- accumulator --------------------------------------------------------------


def test_accumulate_additive_merge():
    acc = cf.ColorAccumulator(8)
    acc.add_entries([(2, 3)])
    acc.add_entries([(2, 1), (5, 2)])
    assert canon(acc.drain_and_reset()) == ((2, 4), (5, 2))
    assert acc.is_fully_reset()


def test_accumulate_empty_is_identity():
    acc = cf.ColorAccumulator(4)
    acc.add_entries([])
    assert acc.drain_and_reset() == []


def test_accumulate_random_equals_sorted_merge():
    rng = np.random.default_rng(31)
    for _ in range(50):
        phi = int(rng.integers(1, 40))
        acc = cf.ColorAccumulator(phi)
        lists = [
            [(int(c), int(w)) for c, w in zip(rng.integers(0, phi, sz), rng.integers(1, 9, sz))]
            for sz in rng.integers(0, 8, size=int(rng.integers(1, 6)))
        ]
        for entries in lists:
            acc.add_entries(entries)
        ref = {}
        for entries in lists:
            for c, w in entries:
                ref[c] = ref.get(c, 0) + w
        assert canon(acc.drain_and_reset()) == tuple(sorted(ref.items()))


def test_drain_disjoint_colors_unions():
    acc = cf.ColorAccumulator(10)
    acc.add_entries([(1, 1)])
    acc.add_entries([(4, 2)])
    acc.add_entries([(7, 3)])
    assert canon(acc.drain_and_reset()) == ((1, 1), (4, 2), (7, 3))


def test_drain_single_touched():
    acc = cf.ColorAccumulator(100)
    acc.add(7, 2)
    assert acc.drain_and_reset() == [(7, 2)]
    assert acc.drain_and_reset() == []


def test_drain_cost_independent_of_phi():
    costs = []
    for phi in (10, 1000, 100000):
        acc = cf.ColorAccumulator(phi)
        for c in range(5):
            acc.add(c, 1)
        before = acc.drain_ops
        acc.drain_and_reset()
        costs.append(acc.drain_ops - before)
    assert costs[0] == costs[1] == costs[2] == 5


def test_accumulator_contract_violation():
    acc = cf.ColorAccumulator(3)
    with pytest.raises(cf.ContractViolationError):
        acc.add(3, 1)
    with pytest.raises(cf.ContractViolationError):
        acc.add(-1, 1)


# -- weighted mode ------------------------------------------------------------


def test_weighted_semigroup_dominance():
    rng = np.random.default_rng(90)
    for trial in range(20):
        n = int(rng.integers(1, 200))
        ps = cf.generate_points(n, 2, 8, seed=trial, mode=cf.MAX_SEMIGROUP)
        t = cf.build_dominance(ps, 2, s=4, mode=cf.MAX_SEMIGROUP)
        for _ in range(5):
            q = random_corner(rng, 2)
            assert canon(t.query(q)) == canon(cf.brute_force(ps, q))


def test_batched_tree_counters_match_one_by_one_build():
    ps = cf.generate_points(3000, 2, 40, seed=5, grid=1500)
    batched = cf.build_dominance(ps, 2, s=4)
    # each strip built by a call of its own, over the same skeleton
    single = cf.DominanceTree._forest(ps.coords, ps.colors, ps.weights, 4, ps.phi, ps.mode)
    columns = dominance._strip_columns(single)
    single.prefix[1:] = [single._build_substructure(np.array([single.parent[0][c]]),
                                                    np.array([c]), *columns)
                         for c in range(1, ps.n)]
    # the strips share one block
    assert len({id(batched.prefix[c]) for c in range(1, ps.n)}) < ps.n - 1
    assert batched.stored_entries == single.stored_entries
    assert batched.build_ops == single.build_ops
    rng = np.random.default_rng(6)
    s1, s2 = batched.new_session(), single.new_session()
    for _ in range(200):
        q = random_corner(rng, 2, lo=-10, hi=1510)
        t1, t2 = s1.accumulator.touch_ops, s2.accumulator.touch_ops
        assert batched.query(q, s1) == single.query(q, s2)
        assert (s1.probes, s1.substructure_queries) == (s2.probes, s2.substructure_queries)
        assert s1.accumulator.touch_ops - t1 == s2.accumulator.touch_ops - t2


def test_eager_build_makes_one_block_per_chunk(monkeypatch):
    ps = cf.generate_points(3000, 2, 16, seed=8)
    chunks = []
    real = dominance._strip_chunks

    def counting(trees):
        for chunk in real(trees):
            chunks.append(len(chunk[0]))
            yield chunk

    monkeypatch.setattr(dominance, "_BATCH_CHUNK", 5000)
    monkeypatch.setattr(dominance, "_strip_chunks", counting)
    tree = cf.build_dominance(ps, 2, s=4)
    blocks = {id(tree.prefix[c]) for c in range(1, ps.n)}
    assert 1 < len(blocks) <= len(chunks)
    assert sum(chunks) == ps.n - 1
    for c in range(1, ps.n):
        block, j = tree.prefix[c], tree.index[c]
        assert block.start[j + 1] - block.start[j] == c - tree.parent[0][c]


def test_count_tree_columns_are_typed_and_compact():
    # a 1-D column entry costs bytes, not an object slot, and each integer
    # column by entry the fewest its bound allows: on 16 colors, unit
    # weights and blocks of at most 2**16 entries, uint16 heap columns,
    # uint8 colors and int16 prefix totals
    ps = cf.generate_points(20_000, 2, 16, seed=12)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tree = cf.DominanceTree(ps, 16)
        gc.collect()
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    blocks = {id(b): b for b in tree.prefix if b is not None}.values()
    assert blocks
    for b in blocks:
        codes = [column.typecode for column in (b.lo, b.pri, b.pos, b.skip, b.colors)]
        assert codes == [freq1d._typecode(b.m, "BHi")] * 4 + ["B"]
        assert b.prefix_weight.typecode == "h"
    assert live / tree.stored_entries <= 28


def test_count_tree_column_bytes_per_entry():
    # the buffers of a block's typed columns, counted exactly: 19 bytes per
    # entry, 8 for one heap node (lo, pri, pos, skip as uint16), 1 for its
    # color, 8 for its value and 2 for its prefix total, plus 4 per range
    # for its start and 4 for the block's last start
    ps = cf.generate_points(20_000, 2, 16, seed=12)
    tree = cf.DominanceTree(ps, 16)
    blocks = {id(b): b for b in tree.prefix if b is not None}.values()
    total = per_range = 0
    for b in blocks:
        assert b.start.typecode == "i"
        codes = [getattr(b, name).typecode for name in ("lo", "colors", "sorted_values",
                                                         "prefix_weight")]
        assert codes == ["H", "B", "d", "h"]
        ranges = len(b.start) - 1
        per_range += 4 * ranges + 4
        for name in cf.Frequency1D.__slots__:
            column = getattr(b, name)
            if isinstance(column, array):
                total += column.itemsize * len(column)
    assert total == 19 * tree.stored_entries + per_range


def test_larger_fanout_stores_more_and_probes_less_per_color():
    # growing s buys structure size for fewer probes per reported color
    ps = cf.generate_points(400, 2, 10, seed=3)
    queries = cf.generate_queries(60, 2, 4, sides=(1, 1))
    stored, probes_per_color = {}, {}
    for s in (2, 16):
        tree = cf.build_dominance(ps, 2, s=s)
        session = tree.new_session()
        probes = k = 0
        for q in queries:
            k += len(tree.query(q, session))
            probes += session.probes
        stored[s], probes_per_color[s] = tree.stored_entries, probes / max(1, k)
    assert stored[16] > stored[2]
    assert probes_per_color[16] < probes_per_color[2]
