"""The 1-D frequency structure: chains, quadrant queries, intervals, probes."""

import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import colorfreq as cf
from colorfreq import dominance, freq1d
from colorfreq.core import count_le
from _util import (
    block_1d,
    canon,
    chain_of,
    chains,
    check_block,
    check_typecodes,
    checked_blocks,
    reference_1d,
    succ,
)

# Pinned probe-counter constants (recorded by this suite; measured worst
# cases were ~1.3 and ~2.3 with the same per-k charges).
PREFIX_C1, PREFIX_C2 = 3.0, 4.0
INTERVAL_C1, INTERVAL_C2 = 4.0, 8.0
BUILD_C = 8.0

RED, BLUE = 0, 1
FIVE_POINTS = [(1.0, RED), (2.0, BLUE), (3.0, RED), (5.0, RED), (7.0, BLUE)]


def oracle_1d(points, lo, hi):
    acc = {}
    for x, c, *w in points:
        if lo <= x <= hi:
            acc[c] = acc.get(c, 0) + (w[0] if w else 1)
    return tuple(sorted(acc.items()))


def interval_box(points):
    """The d = 1 box over ``points`` (a PointSet or a list of 1-D points),
    the structure that answers intervals."""
    if not isinstance(points, cf.PointSet):
        points = cf.PointSet.from_points(points) if points else cf.PointSet.empty(1)
    return cf.build_box(points, bounded_axes=(0,))


def interval(box, lo, hi, session=None):
    return box.query(cf.BoxQuery([(lo, hi)]), session)


def test_chain_example():
    f = cf.build_1d([(1.0, RED), (3.0, RED), (5.0, RED), (2.0, BLUE), (7.0, BLUE)]).base
    assert chain_of(f, RED) == [(1.0, 3.0, 1), (3.0, 5.0, 2), (5.0, math.inf, 3)]
    assert chain_of(f, BLUE) == [(2.0, 7.0, 1), (7.0, math.inf, 2)]


def test_singleton_chain():
    f = cf.build_1d([(4.0, RED)]).base
    assert chain_of(f, RED) == [(4.0, math.inf, 1)]


def test_empty_structure():
    f = cf.build_1d([])
    assert f.stored_entries == 0
    assert f.query((10.0,)) == []


def test_prefix_examples():
    f = cf.build_1d(FIVE_POINTS)
    assert canon(f.query((5.0,))) == ((RED, 3), (BLUE, 1))
    assert f.query((0.0,)) == []
    assert canon(f.query((7.0,))) == ((RED, 3), (BLUE, 2))


def test_interval_examples():
    box = interval_box(FIVE_POINTS)
    assert canon(interval(box, 2.0, 6.0)) == ((RED, 2), (BLUE, 1))
    assert interval(box, 4.0, 4.0) == []
    everything = cf.build_1d(FIVE_POINTS).query((math.inf,))
    assert canon(interval(box, -10.0, 10.0)) == canon(everything)


def test_malformed_input_rejected():
    for values, colors, weights in (
        ([1.0, 2.0], [0, 0], [1.5, 1]),  # a fractional count weight
        ([1.0, 2.0], [0, -1], None),  # a negative color id
        ([1.0, 2.0], [0.5, 1.7], None),  # fractional color ids
        ([math.nan, 2.0], [0, 1], None),
        ([1.0, math.inf], [0, 1], None),
        ([-math.inf, 2.0], [0, 1], None),
        ([[1.0, 2.0]], [0], None),  # one 2-D point
    ):
        with pytest.raises(cf.MalformedInputError):
            block_1d(values, colors, weights)
    # integer weights of any type, and no points at all, stay accepted
    f = block_1d([1.0, 2.0], np.array([0, 0], dtype=np.uint8), [np.int64(2), True])
    assert f.query_prefix(5.0) == [(0, 3)]
    assert block_1d([], []).query_prefix(0.0) == []


def test_count_totals_past_int64_rejected():
    # prefix totals are stored as int64, as PointSet bounds them
    for weights in ([2**62, 2**62], [-(2**62), -(2**62) - 1], [2**63],
                    [2**62, -(2**62), 2**62]):
        with pytest.raises(cf.MalformedInputError, match="overflow int64 totals"):
            block_1d([0.0, 1.0, 2.0][: len(weights)], [0] * len(weights), weights)
        with pytest.raises(cf.MalformedInputError, match="overflow int64 totals"):
            cf.build_1d([(float(x), 0, w) for x, w in enumerate(weights)])
    f = block_1d([0.0, 1.0], [0, 0], [2**62, 2**62 - 1])
    assert f.query_prefix(1.0) == [(0, 2**63 - 1)]


# values, colors and weights with some of every kind that PointSet rejects:
# non-finite values, negative color ids, and count weights whose |sum|
# passes int64
POINTS_1D = st.lists(
    st.tuples(st.sampled_from([0.0, 1.0, 2.5, -1.0, math.inf, -math.inf, math.nan]),
              st.integers(-1, 4),
              st.sampled_from([0, 1, -2, 5, 2**62, -(2**62)])),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(POINTS_1D, st.sampled_from(["count", "max"]))
@example([(0.0, 0, 2**62), (1.0, 0, -(2**62)), (2.0, 0, 2**62)], "count")
def test_build_1d_and_build_dominance_check_points_alike(points, mode_name):
    # build_1d takes the points as tuples and build_dominance as a PointSet;
    # both check through PointSet: the same error, or two blocks laid out
    # as defined and equal
    mode = cf.COUNT if mode_name == "count" else cf.MAX_SEMIGROUP
    v = np.array([p[0] for p in points], dtype=np.float64)
    c = np.array([p[1] for p in points], dtype=np.int64)
    w = [p[2] for p in points]
    outcomes = []
    for build in (lambda: cf.build_1d(points, mode),
                  lambda: cf.build_dominance(cf.PointSet(v[:, None], c, w, mode), s=2)):
        try:
            outcomes.append(build())
        except cf.MalformedInputError as exc:
            outcomes.append(str(exc))
    got, want = outcomes
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
    else:
        for tree in (got, want):
            check_block(tree.base, [(v, c, w)])
        assert_same_block(got.base, want.base)


def test_color_ids_past_int32_rejected():
    # color ids are stored as int32, by both builders
    with pytest.raises(cf.MalformedInputError, match="below 2"):
        block_1d([0.0, 1.0], [0, 2**31])
    ps = cf.PointSet([[0.0, 0.0], [1.0, 1.0]], [2**31, 0])
    with pytest.raises(cf.MalformedInputError, match="below 2"):
        cf.DominanceTree(ps, 2)
    f = block_1d([0.0, 1.0], [0, 2**31 - 1])
    assert canon(f.query_prefix(1.0)) == ((0, 1), (2**31 - 1, 1))


# -- typecodes: each column by entry as narrow as its bound -------------------


def _chain(total, n=20):
    """n count weights of one chain that runs up to ``total``, the sum of
    their magnitudes too."""
    step = 1 if total >= 0 else -1
    return [total - step * (n - 1)] + [step] * (n - 1)


# name: (entries, largest color id, count weights (None for ones), and the
# typecodes of the heap columns, colors and prefixes)
TYPECODE_CASES = {
    "color 255": (40, 255, None, "BBh"),
    "color 256": (40, 256, None, "BHh"),
    "color 65535": (40, 65535, None, "BHh"),
    "color 65536": (40, 65536, None, "Bih"),
    "size 255": (255, 3, None, "BBh"),
    "size 256": (256, 3, None, "HBh"),
    "size 65535": (65535, 3, None, "HBi"),
    "size 65536": (65536, 3, None, "iBi"),
    "total 2**15-1": (20, 0, _chain(2**15 - 1), "BBh"),
    "total 2**15": (20, 0, _chain(2**15), "BBi"),
    "total -(2**15-1)": (20, 0, _chain(-(2**15 - 1)), "BBh"),
    "total -2**15": (20, 0, _chain(-(2**15)), "BBi"),
    "total 2**31-1": (20, 0, _chain(2**31 - 1), "BBi"),
    "total 2**31": (20, 0, _chain(2**31), "BBq"),
    "total -(2**31-1)": (20, 0, _chain(-(2**31 - 1)), "BBi"),
    "total -2**31": (20, 0, _chain(-(2**31)), "BBq"),
    "cancel 2**15-1": (2, 0, [2**14, -(2**14 - 1)], "BBh"),
    "cancel 2**15": (2, 0, [2**14, -(2**14)], "BBi"),
    "cancel 2**31-1": (2, 0, [2**30, -(2**30 - 1)], "BBi"),
    "cancel 2**31": (2, 0, [2**30, -(2**30)], "BBq"),
}


@pytest.mark.parametrize("name", list(TYPECODE_CASES))
def test_columns_take_the_narrowest_typecode_for_their_bound(name):
    # blocks on both sides of every typecode boundary answer as the oracle
    # does, and each column has the code of its bound on the block's input
    n, top, weights, codes = TYPECODE_CASES[name]
    rng = np.random.default_rng(len(name))
    values = rng.integers(0, max(2, n // 3), n).astype(float)  # ties
    colors = rng.integers(0, 4, n) if top else np.zeros(n, dtype=np.int64)
    colors[n // 2] = top
    ps = cf.PointSet(values[:, None], colors, weights)
    tree = cf.build_1d(ps)
    f = tree.base
    assert [f.lo.typecode, f.colors.typecode, f.prefix_weight.typecode] == list(codes)
    check_typecodes(f, ps.colors, ps.weights)
    if n <= 256:
        check_block(f, [(values, colors, ps.weights.tolist())])
    for q in [-1.0, *np.quantile(values, np.linspace(0, 1, 9)), values.max() + 1]:
        assert canon(tree.query((q,))) == canon(cf.brute_force(ps, cf.BoxQuery.dominance([q])))


@pytest.mark.parametrize("size, code", [(255, "B"), (256, "H")])
def test_heap_columns_take_the_code_of_the_block_size(size, code):
    # heap positions run over the whole block: two ranges of 255 or 256
    # entries in all, each of them small enough for 'B'
    rng = np.random.default_rng(size)
    values = rng.integers(0, 50, 300).astype(float)
    ps = cf.PointSet(values[:, None], rng.integers(0, 5, 300), rng.integers(-2, 3, 300))
    ranges = [(0, 128), (300 - (size - 128), 300)]
    block = freq1d._build_ranges(values, ps.colors, ps.weights, ranges)
    assert block.lo.typecode == code
    check_typecodes(block, ps.colors, ps.weights)
    check_block(block, [(values[a:b], ps.colors[a:b], ps.weights[a:b].tolist())
                        for a, b in ranges])


def test_inverted_interval_rejected():
    box = interval_box(FIVE_POINTS)
    with pytest.raises(cf.MalformedQueryError):
        interval(box, 5.0, 2.0)


def test_nan_query_bounds_rejected():
    points = [(1.0, 0), (3.0, 0), (5.0, 1)]
    f, box = cf.build_1d(points), interval_box(points)
    for query in (lambda: f.query((math.nan,)), lambda: interval(box, 0.0, math.nan),
                  lambda: interval(box, math.nan, 4.0)):
        with pytest.raises(cf.MalformedQueryError):
            query()


def test_quadrant_hits_at_most_one_point_per_color():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = int(rng.integers(1, 120))
        f = block_1d(
            rng.integers(0, 30, m).astype(float), rng.integers(0, 8, m)
        )
        q = float(rng.integers(-1, 31))
        # on a fresh accumulator a color hit twice would touch its cell twice
        cells, touched = freq1d._Cells(), []
        _, touches = freq1d._report_walk(((f, 0),), q, cells, touched, cf.COUNT.combine)
        assert touches == len(touched)


def test_chain_completeness_recovers_sorted_sequences():
    rng = np.random.default_rng(4)
    for _ in range(30):
        m = int(rng.integers(1, 150))
        vals = rng.integers(0, 40, m).astype(float)
        cols = rng.integers(0, 6, m)
        f = block_1d(vals, cols)
        for c in set(cols.tolist()):
            chain = chain_of(f, c)
            assert [x for x, _, _ in chain] == sorted(vals[cols == c].tolist())
            # links: successor of one mapped point is the next point
            for (x1, nxt, _), (x2, _, _) in zip(chain, chain[1:]):
                assert nxt == x2
            assert chain[-1][1] == math.inf
            assert [w for _, _, w in chain] == list(range(1, len(chain) + 1))


def test_oracle_equivalence_1000_random_instances():
    rng = np.random.default_rng(1234)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(0, 501))
        grid = int(rng.integers(2, max(3, n + 2)))
        phi = int(rng.integers(1, max(n, 1) + 1))
        pts = [
            (float(x), int(c))
            for x, c in zip(rng.integers(0, grid, n), rng.integers(0, phi, n))
        ]
        f = cf.build_1d(pts)
        m = f.stored_entries
        session = f.new_session()
        box = interval_box(pts)
        box_session = box.new_session()
        for _ in range(2):
            q = float(rng.uniform(-1, grid + 1))
            got = f.query((q,), session)
            assert canon(got) == oracle_1d(pts, -math.inf, q)
            k = len(got)
            assert session.probes <= PREFIX_C1 * math.log2(m + 1) + PREFIX_C2 * k
            assert all(w > 0 for _, w in got)

            lo, hi = sorted(rng.uniform(-1, grid + 1, 2))
            got = interval(box, float(lo), float(hi), box_session)
            assert canon(got) == oracle_1d(pts, lo, hi)
            k = len(got)
            assert box_session.probes <= INTERVAL_C1 * math.log2(m + 1) + INTERVAL_C2 * k
            checked += 1
    assert checked == 2000


def test_prefix_difference_identity():
    # count in [lo,hi] = prefix(hi) - prefix just below lo, per color
    rng = np.random.default_rng(6)
    for _ in range(40):
        n = int(rng.integers(1, 200))
        grid = int(rng.integers(2, 60))
        pts = [
            (float(x), int(c))
            for x, c in zip(rng.integers(0, grid, n), rng.integers(0, 7, n))
        ]
        f = cf.build_1d(pts)
        lo, hi = sorted(rng.uniform(-1, grid, 2))
        upper = dict(f.query((hi,)))
        below = dict(f.query((math.nextafter(lo, -math.inf),)))
        diff = {
            c: upper[c] - below.get(c, 0)
            for c in upper
            if upper[c] - below.get(c, 0) > 0
        }
        assert tuple(sorted(diff.items())) == canon(interval(interval_box(pts), lo, hi))


def test_build_ops_linearithmic():
    rng = np.random.default_rng(8)
    for n in (1, 10, 100, 1000, 5000):
        vals = rng.integers(0, n + 1, n).astype(float)
        cols = rng.integers(0, max(1, n // 3), n)
        f = block_1d(vals, cols)
        assert f.build_ops <= BUILD_C * n * math.log2(n + 1)


def test_weighted_prefix_weights_accumulate():
    f = cf.build_1d([(1.0, 0, 5), (2.0, 0, 2), (3.0, 1, 9)])
    assert chain_of(f.base, 0) == [(1.0, 2.0, 5), (2.0, math.inf, 7)]
    assert canon(f.query((2.5,))) == ((0, 7),)
    assert canon(f.query((3.0,))) == ((0, 7), (1, 9))


def test_cancelling_count_weights_leave_the_color_out():
    ps = cf.PointSet.from_points([(1.0, RED, 1), (2.0, RED, -1), (3.0, BLUE, 2), (4.0, BLUE, 0)])
    f = cf.build_1d(ps)
    assert f.query((5.0,)) == [(BLUE, 2)]
    assert f.query((2.0,)) == []
    assert interval(interval_box(ps), 1.0, 5.0) == [(BLUE, 2)]
    assert cf.build_dominance(ps, 1, s=2).query((5.0,)) == [(BLUE, 2)]
    assert cf.brute_force(ps, cf.BoxQuery.dominance((5.0,))) == [(BLUE, 2)]


def test_one_cancel_flag_per_block_reports_as_one_per_range():
    # range 0 holds a red chain that cancels to 0; range 1, indexed past
    # _SMALL, holds positive weights only, so its prefixes are never 0 and
    # the flag its block shares with range 0 skips nothing there
    ys = np.array([1.0, 2.0, 3.0] + [float(x) for x in range(20)])
    cols = np.array([RED, RED, BLUE] + [x % 3 for x in range(20)])
    w = np.array([1, -1, 2] + [1 + x % 4 for x in range(20)])
    block = freq1d._build_ranges(ys, cols, w, [(0, 3), (3, 23)])
    alone = [freq1d._build_ranges(ys, cols, w, [part]) for part in ((0, 3), (3, 23))]
    assert block.cancel and [f.cancel for f in alone] == [True, False]
    slots, touched = [None] * 3, []
    assert freq1d._report_walk(((block, 0),), 2.5, slots, touched, operator.add) == (2, 0)
    assert touched == []  # red's total 0 is left out
    for q in np.arange(-1.0, 21.0, 0.5).tolist():
        got, want = cf.ColorAccumulator(3), cf.ColorAccumulator(3)
        counters = freq1d._report_walk(((block, 0), (block, 1)), q, got.slots, got.touched,
                                       operator.add)
        assert counters == freq1d._report_walk(((alone[0], 0), (alone[1], 0)), q, want.slots,
                                               want.touched, operator.add)
        assert got.touched == want.touched and got.slots == want.slots


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 5)), min_size=0, max_size=60
    ),
    st.integers(-1, 31),
)
def test_prefix_matches_oracle_property(pairs, q):
    pts = [(float(x), c) for x, c in pairs]
    f = cf.build_1d(pts) if pts else cf.build_1d([])
    assert canon(f.query((float(q),))) == oracle_1d(pts, -math.inf, q)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 30), st.integers(0, 5), st.integers(-3, 3)), max_size=60),
    st.lists(st.integers(-1, 31), min_size=1, max_size=5),
    st.sampled_from(["count", "max"]),
)
def test_build_1d_answers_as_brute_force_with_one_substructure_query(triples, qs, mode_name):
    # signed count weights, which cancel, and max weights; each prefix query
    # is one substructure query that touches each reported color once
    mode = cf.COUNT if mode_name == "count" else cf.MAX_SEMIGROUP
    ps = cf.PointSet(np.array([[float(x)] for x, _, _ in triples]).reshape(-1, 1),
                     [c for _, c, _ in triples], [w for _, _, w in triples], mode)
    tree = cf.build_1d(ps)
    assert isinstance(tree, cf.DominanceTree) and tree.stored_entries == ps.n
    session = tree.new_session()
    acc = session.accumulator
    for q in qs:
        before = acc.touch_ops
        got = tree.query((float(q),), session)
        assert canon(got) == canon(cf.brute_force(ps, cf.BoxQuery.dominance([float(q)])))
        assert session.substructure_queries == 1
        assert acc.touch_ops - before == len(got)


# tuple concatenation: a semigroup that is neither commutative nor scalar;
# a None weight adds nothing, and a None prefix is where Frequency1D starts
# a chain afresh
CONCAT = cf.SemigroupMode(lambda a, b: a + (b or ()), name="concat")


def weight_column(w, mode):
    """The weights ``w`` as ``PointSet.weights`` holds them, the column
    ``_build_ranges`` takes."""
    return cf.PointSet(np.zeros((len(w), 1)), [0] * len(w), w, mode).weights


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 1200),
    st.integers(1, 60),
    st.integers(1, 12),
    st.integers(0, 2**31),
    st.integers(-3, 1),
    st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=12),
    st.sampled_from(["count", "max", "concat"]),
)
def test_batched_build_matches_one_by_one(n, grid, phi, seed, low, spans, mode_name):
    # ranges of 1 to n entries, around _SMALL and far above it; count
    # weights in [low, 3], so some ranges have no weight below 0 and some
    # none below 1.
    # Concatenated prefixes grow with the square of a chain's length, so
    # that mode keeps n small.
    rng = np.random.default_rng(seed)
    mode = {"count": cf.COUNT, "max": cf.MAX_SEMIGROUP, "concat": CONCAT}[mode_name]
    if mode is CONCAT:
        n = min(n, 300)
    ys = rng.integers(0, grid, n).astype(float)
    cols = rng.integers(0, phi, n)
    w = rng.integers(low, 4, n).tolist()
    if mode is CONCAT:
        w = [None if x == 3 else (x, i) for i, x in enumerate(w)]
    ranges = [(lo, cut) for lo, cut in (sorted((int(a * n), int(b * n))) for a, b in spans)
              if cut > lo]
    if not ranges:
        return
    weights = weight_column(w, mode)
    block = freq1d._build_ranges(ys, cols, weights, ranges, mode)
    # a block's typecodes follow its own input, and each range's reference
    # its range's, so the two are compared by value
    check_typecodes(block, cols, weights)
    assert len(block.start) == len(ranges) + 1
    assert block.stored_entries == block.start[-1] == len(block.lo)
    ranks = succ(block)
    wants = []
    for j, (lo, cut) in enumerate(ranges):
        want = reference_1d(ys[lo:cut], cols[lo:cut], w[lo:cut], mode)
        wants.append(want)
        a, b = block.start[j], block.start[j + 1]

        def unshift(column):  # block positions to ranks in the range
            return [x - a for x in column]

        got = {
            "mode": block.mode,
            "m": b - a,
            "sorted_values": block.sorted_values[a:b].tolist(),
            "colors": block.colors[a:b],
            "prefix_weight": block.prefix_weight[a:b],
            "start": [0, b - a],
            "lo": unshift(block.lo[a:b]),
            "pri": list(block.pri[a:b]),
            "pos": unshift(block.pos[a:b]),
            "skip": list(block.skip[a:b]),
        }
        # the block values are checked over all ranges below
        assert set(got) | {"build_ops", "cancel"} == set(cf.Frequency1D.__slots__)
        arrays = ("lo", "pri", "pos", "skip", "start")
        for name in ("sorted_values", "colors", "prefix_weight") + arrays:
            assert type(getattr(block, name)) is type(getattr(want, name)), name
        for name, value in got.items():
            mine = getattr(want, name)
            if name == "sorted_values":
                mine = mine.tolist()
            elif name in arrays:
                mine = list(mine)
            assert value == mine, name
        assert ranks[a:b] == succ(want)
    assert block.build_ops == sum(want.build_ops for want in wants)
    assert block.cancel == any(want.cancel for want in wants)


def heap_layout_holds_one_node_per_entry(f):
    """Assert that each range of ``f`` stores exactly one heap node per
    entry, in preorder: range j's nodes are [start[j], start[j+1]), each
    starts inside the range, holds one of its positions and ends its
    subtree inside it."""
    lo, pri, pos, skip = f.lo, f.pri, f.pos, f.skip
    assert len(lo) == len(pri) == len(pos) == len(skip) == f.start[-1] == f.m
    for j in range(len(f.start) - 1):
        a, b = f.start[j], f.start[j + 1]
        assert sorted(pos[a:b]) == list(range(a, b))
        assert all(a <= x < b for x in lo[a:b])
        assert list(lo[a:b]) == sorted(lo[a:b])
        assert all(1 <= skip[k] <= b - k for k in range(a, b))


def test_heap_stores_one_node_per_entry():
    rng = np.random.default_rng(17)
    sizes = [*range(0, 4 * freq1d._SMALL), 63, 64, 65, 200, 1000]
    for m in sizes:
        ys = rng.integers(0, max(1, m // 2), m).astype(float)
        cols = rng.integers(0, 5, m)
        heap_layout_holds_one_node_per_entry(block_1d(ys, cols))
    # many ranges per block, of every size in the list, in shuffled order
    ranges, lo = [], 0
    for m in rng.permutation([m for m in sizes if m] * 2).tolist():
        ranges.append((lo, lo + m))
        lo += m
    ys = rng.integers(0, 50, lo).astype(float)
    cols = rng.integers(0, 5, lo)
    block = freq1d._build_ranges(ys, cols, weight_column([1] * lo, cf.COUNT), ranges)
    assert len(block.start) == len(ranges) + 1
    heap_layout_holds_one_node_per_entry(block)


def reference_index(pri):
    """The heap as {node: position}, nodes numbered 1, 2, 3, ... from the
    root, filled by one-by-one insertion in decreasing priority order."""
    m = len(pri)
    occ = {}
    for i in sorted(range(m), key=pri.__getitem__, reverse=True):
        node, lo, hi = 1, 0, m
        while node in occ:
            mid = (lo + hi) >> 1
            if i < mid:
                node, hi = 2 * node, mid
            else:
                node, lo = 2 * node + 1, mid
        occ[node] = i
    return occ


def reference_report(pri, occ, a, b, t):
    """(hits, probes) of the stack walk over ``reference_index``'s heap."""
    m = len(pri)
    if a >= b or m == 0:
        return [], 0
    if m <= freq1d._SMALL:
        return [i for i in range(a, b) if pri[i] >= t], b - a
    hits, probes = [], 0
    stack = [(1, 0, m)]
    while stack:
        node, lo, hi = stack.pop()
        i = occ.get(node)
        if i is None:  # an empty node is not stored, so it costs no probe
            continue
        probes += 1
        if pri[i] < t:
            continue
        if a <= i < b:
            hits.append(i)
        mid = (lo + hi) >> 1
        if lo < mid and a < mid and lo < b:
            stack.append((2 * node, lo, mid))
        if mid < hi and a < hi and mid < b:
            stack.append((2 * node + 1, mid, hi))
    return hits, probes


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 700),
    st.integers(1, 80),
    st.integers(1, 12),
    st.integers(0, 2**31),
    st.sampled_from(["count", "max", "concat"]),
    st.booleans(),
)
def test_prefix_scan_and_report_match_the_reference_heap(m, grid, phi, seed, mode_name, batched):
    # m around _SMALL and far above it; count weights in [-3, 3]
    rng = np.random.default_rng(seed)
    mode = {"count": cf.COUNT, "max": cf.MAX_SEMIGROUP, "concat": CONCAT}[mode_name]
    if mode is CONCAT:
        m = min(m, 300)
    ys = rng.integers(0, grid, m).astype(float)
    cols = rng.integers(0, phi, m)
    w = rng.integers(-3, 4, m).tolist()
    if mode is CONCAT:
        w = [None if x == 3 else (x, i) for i, x in enumerate(w)]
    if batched and m:
        f = freq1d._build_ranges(ys, cols, weight_column(w, mode), [(0, m)], mode)
    else:
        f = block_1d(ys, cols, w, mode)
    ranks, _ = chains(list(f.colors))
    assert succ(f) == ranks
    occ = reference_index(ranks)

    for q in rng.integers(-1, grid + 1, 6).tolist():
        rq = count_le(f.sorted_values, q)
        # three accumulators holding the same partials of an earlier structure
        accs = [cf.ColorAccumulator(phi, mode) for _ in range(3)]
        sessions = [cf.QuerySession(acc) for acc in accs]
        for acc in accs:
            for c in range(0, phi, 2):
                acc.add(c, (c, -1) if mode is CONCAT else c - 1)
        probes, touches = freq1d._report_walk(((f, 0),), q, accs[0].slots, accs[0].touched,
                                              mode.combine)
        sessions[0].probes += probes
        accs[0].touch_ops += touches
        accs[1].add_entries(f.query_prefix(q, sessions[1]))
        hits, sessions[2].probes = reference_report(ranks, occ, 0, rq, rq)
        accs[2].add_entries((f.colors[i], f.prefix_weight[i]) for i in hits
                            if not (f.cancel and f.prefix_weight[i] == 0))
        for acc, session in zip(accs[1:], sessions[1:]):
            assert acc.slots == accs[0].slots
            assert sorted(acc.touched) == sorted(accs[0].touched)
            assert acc.touch_ops == accs[0].touch_ops
            assert session.probes == sessions[0].probes


# -- forest ranks and the max path ----------------------------------------------


BLOCK_COLUMNS = ("sorted_values", "colors", "prefix_weight", "lo", "pri", "pos", "skip",
                 "start")


def assert_same_columns(got, want):
    """Every column and block value of two blocks equal, and max prefixes
    the very same objects (a concatenation makes new ones in each build)."""
    for name in BLOCK_COLUMNS:
        assert list(getattr(got, name)) == list(getattr(want, name)), name
    assert (got.build_ops, got.cancel) == (want.build_ops, want.cancel)
    if got.mode.combine is max:
        assert all(a is b for a, b in zip(got.prefix_weight, want.prefix_weight))


def assert_same_block(got, want):
    """Two builds of one input: every column equal and of one type."""
    for name in BLOCK_COLUMNS:
        mine, theirs = getattr(got, name), getattr(want, name)
        assert type(mine) is type(theirs), name
        assert getattr(mine, "typecode", None) == getattr(theirs, "typecode", None), name
    assert_same_columns(got, want)


def tied_weights(rng, n, mode):
    """Weights with many ties: count weights in [-2, 2]; max weights as big
    ints, each its own object, so that ``is`` tells equal ones apart."""
    if mode is cf.COUNT:
        return rng.integers(-2, 3, n)
    if mode is CONCAT:
        return [None if x == 3 else (x, i) for i, x in enumerate(rng.integers(0, 4, n).tolist())]
    return [int(str(10**12 + x)) for x in rng.integers(0, 3, n).tolist()]


@pytest.mark.parametrize("shape", ["box", "grid"])
@pytest.mark.parametrize("mode_name", ["count", "max", "concat"])
def test_blocks_ranked_by_the_forest_equal_blocks_ranked_on_their_own(shape, mode_name):
    # a box forest repeats every y value in one tree per layer path, and a
    # grid tree repeats y values in one tree; the forest's ranks and max
    # ints against a block that ranks itself and runs the semigroup loop
    mode = {"count": cf.COUNT, "max": cf.MAX_SEMIGROUP, "concat": CONCAT}[mode_name]
    rng = np.random.default_rng(21)
    n = 300 if shape == "box" else 1500
    base = cf.generate_points(n, 2, 12, seed=22, grid=n // 10)
    ps = cf.PointSet(base.coords, base.colors, tied_weights(rng, n, mode), mode=mode)
    if shape == "box":
        forest = cf.build_box(ps, s=4, bounded_axes=(0, 1)).forest
        assert len(forest.start) > 2
    else:
        forest = cf.build_dominance(ps, 2, s=4)
    rank, ints = dominance._strip_columns(forest)
    assert rank.dtype == np.int32
    assert (ints is not None) == (mode is cf.MAX_SEMIGROUP)
    lo, cut = dominance._strip_ranges(forest)
    for a in range(0, len(lo), 97):
        b = min(a + 97, len(lo))
        got = forest._build_substructure(lo[a:b], cut[a:b], rank, ints)
        want = forest._build_substructure(lo[a:b], cut[a:b])
        assert_same_block(got, want)


def test_max_path_equals_the_loop_on_direct_blocks():
    rng = np.random.default_rng(23)
    for trial in range(40):
        n = int(rng.integers(1, 400))
        ys = rng.integers(0, max(1, n // 5), n).astype(float)
        cols = rng.integers(0, int(rng.integers(1, 20)), n)
        w = tied_weights(rng, n, cf.MAX_SEMIGROUP)
        if trial % 4 == 0:  # the whole int64 range: the running max key would overflow
            w[0], w[-1] = -2**63, 2**63 - 1
        elif trial % 4 == 1:  # int32 weights at both ends of their range
            w = [int(str(x)) for x in rng.choice([-2**31, 7, 2**31 - 1], n).tolist()]
        ranges = [sorted(rng.integers(0, n + 1, 2).tolist()) for _ in range(5)]
        ranges = [(lo, cut) for lo, cut in ranges if cut > lo] or [(0, n)]
        weights = weight_column(w, cf.MAX_SEMIGROUP)
        ints = freq1d._max_ints(weights, cf.MAX_SEMIGROUP)
        assert ints.tolist() == w
        got = freq1d._build_ranges(ys, cols, weights, ranges, cf.MAX_SEMIGROUP, ints=ints)
        want = freq1d._build_ranges(ys, cols, weights, ranges, cf.MAX_SEMIGROUP)
        assert_same_block(got, want)


def test_max_path_takes_python_ints_that_fit_int64_only():
    for fits, dtype in (([0, -1, 2**31 - 1, -2**31], np.int32),
                        ([0, -1, 2**63 - 1, -2**63], np.int64), ([2**31], np.int64)):
        ints = freq1d._max_ints(fits, cf.MAX_SEMIGROUP)
        assert ints.dtype == dtype and ints.tolist() == fits
    assert freq1d._max_ints([], cf.MAX_SEMIGROUP).tolist() == []
    for weights in ([1, 2**63], [1, -2**63 - 1], [1, 2.0], [1, True], [1, None],
                    [(1,), (2,)], [1, np.int64(2)]):
        assert freq1d._max_ints(weights, cf.MAX_SEMIGROUP) is None, weights
    # the loop then builds the same columns as the one-by-one build, whose
    # typecodes do not follow the block's input
    for weights in ([3, 2**64, 2**64, 5], [1.5, 2.0, 2.0, -1.0], [True, 1, 1, False]):
        colors = np.zeros(4, dtype=np.int64)
        block = freq1d._build_ranges(np.arange(4.0), colors,
                                     weight_column(weights, cf.MAX_SEMIGROUP), [(0, 4)],
                                     cf.MAX_SEMIGROUP)
        want = reference_1d(np.arange(4.0), [0] * 4, weights, cf.MAX_SEMIGROUP)
        assert_same_columns(block, want)
        check_typecodes(block, colors, weights)
    for mode in (cf.COUNT, CONCAT, cf.SemigroupMode(lambda a, b: max(a, b))):
        assert freq1d._max_ints([1, 2], mode) is None


# -- the layout, checked on every builder's blocks -----------------------------


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 90),
    st.integers(1, 30),
    st.integers(1, 8),
    st.integers(0, 2**31),
    st.sampled_from(["count", "max", "concat"]),
    st.sampled_from([2, 3, 16]),
)
def test_every_builder_lays_out_its_blocks_as_defined(n, grid, phi, seed, mode_name, s):
    # tied coordinates, and count weights in [-2, 2] that cancel
    rng = np.random.default_rng(seed)
    mode = {"count": cf.COUNT, "max": cf.MAX_SEMIGROUP, "concat": CONCAT}[mode_name]
    coords = rng.integers(0, grid, (n, 3)).astype(float)
    cols = rng.integers(0, phi, n)
    w = tied_weights(rng, n, mode)
    if mode is cf.COUNT:
        w = w.tolist()
    check_block(block_1d(coords[:, 0], cols, w, mode), [(coords[:, 0], cols, w)])
    # ranges of any size, empty ones too, and a block of no entries
    ranges = np.sort(rng.integers(0, n + 1, (int(rng.integers(0, 6)), 2)), axis=1)
    check_block(freq1d._build_ranges(coords[:, 0], cols, weight_column(w, mode), ranges, mode),
                [(coords[lo:cut, 0], cols[lo:cut], w[lo:cut]) for lo, cut in ranges.tolist()])
    s = min(s, max(n, 2))
    corners = [cf.BoxQuery.dominance(c) for c in rng.integers(-1, grid + 1, (20, 3)).tolist()]
    with checked_blocks() as seen:
        for d in (1, 2, 3):
            ps = cf.PointSet(coords[:, :d], cols, w, mode=mode)
            cf.build_dominance(ps, d, s=s)
            cf.build_box(ps, s=s, bounded_axes=tuple(range(min(d, 2))))
            queries = [(i, cf.BoxQuery(q.bounds[:d])) for i, q in enumerate(corners)]
            cf.answer_offline_dominance(cf.OfflineJob(ps, queries, d - 1, s))
        ps = cf.PointSet(coords[:, :2], cols, w, mode=mode)
        three = [(i, cf.BoxQuery([tuple(sorted(q.bounds[0][1] + rng.integers(-9, 9, 2))),
                                  q.bounds[1]])) for i, q in enumerate(corners)]
        cf.answer_offline_3sided(ps, three, s)
    assert seen
