"""Core types: queries, rank order, weight algebra, text formats."""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import colorfreq as cf
from _util import canon
from colorfreq.core import count_le, count_lt, rank_order

INF = float("inf")


# -- query normalization -------------------------------------------------------


def test_normalize_lower_bound_becomes_upper():
    q = cf.BoxQuery([(5.0, INF)])
    r = cf.normalize_query(q, [True])
    assert r.bounds == ((-INF, -5.0),)


def test_normalize_identity_without_reflection():
    q = cf.BoxQuery([(-INF, 3.0)])
    assert cf.normalize_query(q, [False]).bounds == ((-INF, 3.0),)


def test_normalize_interval_reverses_order():
    q = cf.BoxQuery([(1.0, 4.0)])
    assert cf.normalize_query(q, [True]).bounds == ((-4.0, -1.0),)


def test_malformed_query_rejected():
    with pytest.raises(cf.MalformedQueryError):
        cf.BoxQuery([(4.0, 1.0)])
    with pytest.raises(cf.MalformedQueryError):
        cf.BoxQuery([(float("nan"), 1.0)])


_PS = cf.generate_points(20, 2, 3, seed=0)
_CORNER = cf.BoxQuery([(-INF, 500.0), (-INF, 500.0)])
_SLAB = cf.BoxQuery([(100.0, 600.0), (-INF, 500.0)])


@pytest.mark.parametrize("call, error", [
    (lambda: cf.answer_offline_3sided(_PS, [_SLAB], 4), cf.UnsupportedShapeError),
    (lambda: cf.answer_offline_dominance(cf.OfflineJob(_PS, [_CORNER])), cf.UnsupportedShapeError),
    (lambda: cf.build_dominance(_PS, 2, s=4).query(("a", 1)), cf.MalformedQueryError),
    (lambda: cf.build_dominance(_PS, 2, s=4).query(None), cf.MalformedQueryError),
    (lambda: cf.BoxQuery([("a", 1)]), cf.MalformedQueryError),
    (lambda: cf.build_1d([("a", 0)]), cf.MalformedInputError),
    (lambda: cf.BoxQuery(None), cf.MalformedQueryError),
    (lambda: cf.brute_force(_PS, None), cf.MalformedQueryError),
    (lambda: cf.answer_offline_3sided(_PS, None, 2), cf.UnsupportedShapeError),
    (lambda: cf.answer_offline_dominance(cf.OfflineJob(_PS, None)), cf.UnsupportedShapeError),
    (lambda: cf.PointSet.from_points(None), cf.MalformedInputError),
    (lambda: cf.PointSet.from_points([1]), cf.MalformedInputError),
    (lambda: cf.build_dominance(None), cf.MalformedInputError),
    (lambda: cf.normalize_query(_CORNER, None), cf.ParameterError),
    (lambda: cf.PointSet([["a"]], [0]), cf.MalformedInputError),
    (lambda: cf.PointSet.from_points([(("a",), 0)]), cf.MalformedInputError),
    (lambda: cf.build_1d(None), cf.MalformedInputError),
    (lambda: cf.brute_force(None, _CORNER), cf.MalformedInputError),
    (lambda: cf.BoxQuery.dominance(5), cf.MalformedQueryError),
    (lambda: cf.PointSet([[0.0]], [0], 5, cf.MAX_SEMIGROUP), cf.MalformedInputError),
    (lambda: cf.PointSet([[0.0]], [0], labels=5), cf.MalformedInputError),
    (lambda: cf.answer_offline_3sided(None, [], 2), cf.MalformedInputError),
    (lambda: cf.answer_offline_dominance(cf.OfflineJob(None, [])), cf.MalformedInputError),
    (lambda: cf.build_1d([(1.0, 0)]).query(("a",)), cf.MalformedQueryError),
    (lambda: cf.build_1d([(1.0, 0)]).query((None,)), cf.MalformedQueryError),
    (lambda: _PS.reflected(None), cf.ParameterError),
    (lambda: _PS.reflected([5]), cf.ParameterError),
    (lambda: cf.build_dominance(_PS, 2, s=4).query([2**1100, 1]), cf.MalformedQueryError),
    (lambda: cf.normalize_query(None, []), cf.MalformedQueryError),
    (lambda: cf.PointSet([[0.0]], [0], None, None), cf.ParameterError),
    (lambda: cf.PointSet([[0.0]], [0], None, "x"), cf.ParameterError),
    (lambda: cf.build_dominance(_PS, 2, s=4).query(_CORNER, 5), cf.ContractViolationError),
    (lambda: cf.build_box(_PS, s=4, bounded_axes=(0,)).query(_SLAB, 5),
     cf.ContractViolationError),
    (lambda: cf.build_dominance(_PS, 2, s=4).query(_CORNER, cf.QuerySession(5)),
     cf.ContractViolationError),
    (lambda: cf.build_1d([(1.0, 0)]).base.query_prefix(1.0, 5), cf.ContractViolationError),
    (lambda: cf.answer_offline_dominance(None), cf.MalformedInputError),
    (lambda: cf.generate_points(None, 2, 3, seed=0), cf.ParameterError),
    (lambda: cf.generate_points(10, 2, 3, seed=0, grid="a"), cf.ParameterError),
    (lambda: cf.generate_queries(None, 2, seed=0), cf.ParameterError),
    (lambda: cf.generate_queries(3, 2, 0, lo="a"), cf.ParameterError),
    (lambda: cf.canonical_freq(None), cf.MalformedInputError),
    (lambda: cf.read_dataset(None), cf.MalformedInputError),
    (lambda: cf.read_queries(None), cf.MalformedQueryError),
    (lambda: cf.ColorAccumulator(None), cf.ParameterError),
    (lambda: cf.ColorAccumulator(2).add("a", 1), cf.ContractViolationError),
    (lambda: cf.ColorAccumulator(2).add(None, 1), cf.ContractViolationError),
    (lambda: cf.generate_points(10, 2, 3, seed="a"), cf.ParameterError),
    (lambda: cf.generate_queries(3, 2, 0, sides=5), cf.ParameterError),
    # a path that cannot be opened: the check comes before the file
    (lambda: cf.write_dataset(None, os.path.join(os.devnull, "p.txt")), cf.MalformedInputError),
    (lambda: cf.write_queries(None, os.path.join(os.devnull, "q.txt")), cf.MalformedQueryError),
    (lambda: cf.answer_offline_3sided(_PS, [(0, _SLAB)], 2, sink=5), cf.ContractViolationError),
    (lambda: cf.answer_offline_dominance(cf.OfflineJob(_PS, [(0, _CORNER)], sink=5)),
     cf.ContractViolationError),
    (lambda: cf.peak_space_report(None), cf.MalformedInputError),
    (lambda: cf.ColorAccumulator(2).add(1.5, 1), cf.ContractViolationError),
    (lambda: cf.write_dataset(_PS, None), cf.MalformedInputError),
    (lambda: cf.write_queries([], None), cf.MalformedQueryError),
    (lambda: cf.freq_total(None), cf.MalformedInputError),
    (lambda: cf.freq_total([(0, "a")]), cf.MalformedInputError),
    (lambda: cf.answer_offline_3sided(_PS, [(0, _SLAB)], 2, sink=0), cf.ContractViolationError),
    (lambda: cf.answer_offline_dominance(cf.OfflineJob(_PS, [(0, _CORNER)], sink=0)),
     cf.ContractViolationError),
], ids=["3sided-not-a-pair", "dominance-not-a-pair", "corner-string", "corner-none",
        "bound-string", "1d-string", "bounds-none", "oracle-none", "3sided-none",
        "dominance-none", "points-none", "point-not-a-tuple", "build-none", "flags-none",
        "coords-string", "point-coords-string", "1d-none", "oracle-points-none",
        "corner-not-a-sequence", "semigroup-weights-not-iterable", "labels-not-iterable",
        "3sided-points-none", "dominance-points-none", "prefix-string", "prefix-none",
        "reflect-none", "reflect-axis-outside", "corner-past-float", "normalize-none",
        "mode-none", "mode-string", "session-int", "box-session-int",
        "session-accumulator-int", "block-session-int", "offline-job-none",
        "points-count-none", "points-grid-string", "queries-count-none",
        "queries-lo-string", "canonical-none", "dataset-path-none", "queries-path-none",
        "accumulator-phi-none", "accumulator-color-string", "accumulator-color-none",
        "points-seed-string", "queries-sides-int", "write-dataset-none", "write-queries-none",
        "3sided-sink-int", "dominance-sink-int", "space-report-none",
        "accumulator-color-float", "write-dataset-path-none", "write-queries-path-none",
        "freq-total-none", "freq-total-string", "3sided-sink-zero", "dominance-sink-zero"])
def test_malformed_calls_raise_typed_errors(call, error):
    # queries not given as (id, query) pairs, bounds or values that are not
    # numbers, None in place of a batch, a query, points, flags, a count or a
    # path, and a session that is not one raise the typed errors, never a
    # bare TypeError, ValueError or AttributeError
    with pytest.raises(error):
        call()


def test_sidedness_counts():
    q = cf.BoxQuery([(1.0, 2.0), (-INF, 3.0), (-INF, INF)])
    assert q.sidedness == 3
    assert q.two_sided_axes() == (0,)
    assert not q.is_dominance
    assert cf.BoxQuery.dominance((1.0, 2.0)).is_dominance


def test_reflection_soundness_against_oracle():
    rng = np.random.default_rng(30)
    for trial in range(60):
        d = int(rng.integers(1, 4))
        ps = cf.generate_points(int(rng.integers(1, 150)), d, 6, seed=trial, grid=25)
        flags = [bool(b) for b in rng.integers(0, 2, d)]
        flipped = ps.reflected([i for i, f in enumerate(flags) if f])
        bounds = []
        for axis in range(d):
            if rng.random() < 0.5:
                bounds.append((-INF, float(rng.uniform(-1, 26))))
            else:
                bounds.append((float(rng.uniform(-1, 26)), INF))
        q = cf.BoxQuery(bounds)
        assert canon(cf.brute_force(flipped, cf.normalize_query(q, flags))) == canon(
            cf.brute_force(ps, q)
        )


# -- rank reduction -------------------------------------------------------------


def test_rank_counts_with_duplicates():
    values = [2.0, 2.0, 5.0]
    assert count_le(values, 2) == 2
    assert count_le(values, 1) == 0
    assert count_le(values, 7) == 3
    assert count_lt(values, 2) == 0
    assert count_lt(values, 5) == 2


# a few values, so that ties are the rule; -0.0 equals 0.0, and NaN sorts last
TIE_FLOATS = st.sampled_from([0.0, -0.0, 1.5, -2.0, INF, -INF, math.nan, 1e300, 5e-324])


def assert_rank_order_is_the_stable_sort(values):
    got = rank_order(values)
    want = np.argsort(values, kind="stable")
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(TIE_FLOATS, st.floats(allow_nan=True)), max_size=80))
def test_rank_order_equals_the_stable_sort_on_floats(xs):
    values = np.array(xs, dtype=np.float64)
    assert_rank_order_is_the_stable_sort(values)
    # values next to their negations: -0.0 and 0.0 tie
    assert_rank_order_is_the_stable_sort(np.concatenate((values, -values)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 3) | st.integers(-2**63, 2**63 - 1), max_size=80))
def test_rank_order_equals_the_stable_sort_on_ints(xs):
    assert_rank_order_is_the_stable_sort(np.array(xs, dtype=np.int64))


def test_rank_order_equals_the_stable_sort_at_the_edges():
    for values in ([], [7.0], [math.nan], [math.nan, math.nan], [0.0, -0.0, 0.0],
                   [INF, -INF, INF, math.nan, -INF]):
        assert_rank_order_is_the_stable_sort(np.array(values, dtype=np.float64))
    assert_rank_order_is_the_stable_sort(np.zeros(0, dtype=np.int64))
    assert_rank_order_is_the_stable_sort(np.array([3], dtype=np.int32))
    # a long run of ties, and one array with no tie at all
    rng = np.random.default_rng(3)
    assert_rank_order_is_the_stable_sort(rng.integers(0, 4, 5000).astype(float))
    assert_rank_order_is_the_stable_sort(rng.permutation(5000))


# -- weight modes ----------------------------------------------------------------


@given(st.lists(st.integers(-100, 100), min_size=3, max_size=3))
def test_count_mode_associative_commutative(vals):
    a, b, c = vals
    m = cf.COUNT
    assert m.combine(m.combine(a, b), c) == m.combine(a, m.combine(b, c))
    assert m.combine(a, b) == m.combine(b, a)
    assert m.combine(a, 0) == a


@given(st.lists(st.integers(-100, 100), min_size=3, max_size=3))
def test_max_semigroup_associative_commutative(vals):
    a, b, c = vals
    m = cf.MAX_SEMIGROUP
    assert m.combine(m.combine(a, b), c) == m.combine(a, m.combine(b, c))
    assert m.combine(a, b) == m.combine(b, a)


# -- point sets ------------------------------------------------------------------


def test_mixed_dimension_rejected():
    with pytest.raises(cf.MalformedInputError):
        cf.PointSet.from_points([((1.0, 2.0), 0), ((1.0,), 1)])


def test_nonfinite_coords_rejected():
    with pytest.raises(cf.MalformedInputError):
        cf.PointSet(np.array([[np.nan, 1.0]]), [0])
    with pytest.raises(cf.MalformedInputError):
        cf.PointSet(np.array([[np.inf, 1.0]]), [0])


def test_negative_color_rejected():
    with pytest.raises(cf.MalformedInputError):
        cf.PointSet(np.zeros((1, 1)), [-1])
    # ids are integers, never truncated; an empty list has no type to check
    with pytest.raises(cf.MalformedInputError):
        cf.PointSet(np.zeros((2, 1)), [0.5, 1.7])
    assert cf.PointSet(np.zeros((0, 1)), []).phi == 0
    assert cf.PointSet(np.zeros((2, 1)), np.array([3, 0], dtype=np.uint8)).phi == 4


def test_count_weights_that_overflow_int64_rejected():
    # structures total in Python ints, the oracle in int64; past 2**63 - 1 they would differ
    for weights in ([2**62, 2**62], [-(2**62), -(2**62)], np.array([2**63], dtype=np.uint64)):
        with pytest.raises(cf.MalformedInputError):
            cf.PointSet(np.zeros((len(weights), 1)), [0] * len(weights), weights)
    ps = cf.PointSet(np.zeros((2, 1)), [0, 0], [2**62, 2**62 - 1])
    q = cf.BoxQuery.dominance((0.0,))
    assert cf.build_dominance(ps, 1).query(q) == cf.brute_force(ps, q) == [(0, 2**63 - 1)]


def test_empty_count_weight_list_accepted():
    ps = cf.PointSet(np.zeros((0, 2)), [], [])
    assert ps.n == 0 and ps.weights.dtype == np.int64


def test_phi_is_one_plus_max_id():
    ps = cf.PointSet(np.zeros((3, 1)), [0, 4, 2])
    assert ps.phi == 5
    assert cf.PointSet.empty(2).phi == 0


def test_pointset_immutable():
    ps = cf.PointSet(np.zeros((2, 2)), [0, 1])
    with pytest.raises(ValueError):
        ps.coords[0, 0] = 5.0


# a commutative semigroup on tuples, concatenation in sorted order; numpy
# would spread a list of them into a second axis
MERGE = cf.SemigroupMode(lambda a, b: tuple(sorted(a + b)), name="merge")


def _object_array(w):
    out = np.empty(len(w), dtype=object)
    for i, x in enumerate(w):
        out[i] = x
    return out


WEIGHT_FORMS = {
    "list": list,
    "tuple": tuple,
    "generator": lambda w: (x for x in w),
    "map": lambda w: map(w.__getitem__, range(len(w))),
    "int64": lambda w: np.array(w, dtype=np.int64),
    "object": _object_array,
}


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(["count", "max", "merge"]), st.integers(0, 40),
       st.integers(2, 4), st.integers(0, 2**31))
def test_weights_are_one_column_in_every_form(data, mode_name, n, s, seed):
    # the weight column every structure slices, whatever form the weights
    # come in: int64 counts (from any iterable of integers, an object array
    # of them too), or the given objects themselves
    mode, values, forms = {
        "count": (cf.COUNT, st.integers(-3, 3), list(WEIGHT_FORMS)),
        "max": (cf.MAX_SEMIGROUP, st.integers(-3, 3) | st.integers(-2**63, 2**63 - 1),
                list(WEIGHT_FORMS)),
        "merge": (MERGE, st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple),
                  ["list", "tuple", "generator", "map", "object"]),
    }[mode_name]
    w = data.draw(st.lists(values, min_size=n, max_size=n))
    form = data.draw(st.sampled_from(forms))
    rng = np.random.default_rng(seed)
    ps = cf.PointSet(rng.integers(0, 7, (n, 2)).astype(float), rng.integers(0, 4, n),
                     WEIGHT_FORMS[form](w), mode)
    assert isinstance(ps.weights, np.ndarray) and ps.weights.shape == (n,)
    assert not ps.weights.flags.writeable
    assert ps.weights.dtype == (np.int64 if mode is cf.COUNT else object)
    assert ps.weight_list() == w
    if mode is not cf.COUNT and form != "int64":
        assert all(ps.weight_at(i) is w[i] for i in range(n))
    s = min(s, max(2, n))
    dom = cf.build_dominance(ps, 2, s=s)
    box = cf.build_box(ps, s=s, bounded_axes=(0,))
    queries = []
    for _ in range(10):
        x1, x2 = sorted(rng.integers(-1, 8, 2).tolist())
        queries.append(cf.BoxQuery([(x1, x2), (-INF, float(rng.integers(-1, 8)))]))
    got = {}
    cf.answer_offline_3sided(ps, list(enumerate(queries)), s, got.__setitem__)
    for i, q in enumerate(queries):
        corner = cf.BoxQuery.dominance([hi for _, hi in q.bounds])
        assert canon(dom.query(corner)) == canon(cf.brute_force(ps, corner))
        want = canon(cf.brute_force(ps, q))
        assert canon(box.query(q)) == want
        assert canon(got[i]) == want


def test_count_weights_keep_their_rules_in_every_form():
    # an iterator or an object array of count weights is held to the rules
    # of a list: integers only, and no total past int64
    ps = cf.PointSet(np.zeros((3, 1)), [0, 1, 0], [2**40, -3, 5], cf.MAX_SEMIGROUP)
    counts = cf.PointSet(ps.coords, ps.colors, ps.weights)
    assert counts.weights.dtype == np.int64 and counts.weights.tolist() == [2**40, -3, 5]
    for name, form in WEIGHT_FORMS.items():
        if name == "int64":  # which would cast them
            continue
        for weights, message in (([1, 2.5], "must be integers"), ([1, None], "must be integers"),
                                 ([2**64, 0], "must be integers"), ([True, False], "must be integers"),
                                 ([2**62, 2**62], "overflow int64 totals"), ([1], "one per point")):
            with pytest.raises(cf.MalformedInputError, match=message):
                cf.PointSet(np.zeros((2, 1)), [0, 0], form(weights))


def test_colored_point_roundtrip():
    p = cf.ColoredPoint((1.0, 2.0), 3, 7)
    ps = cf.PointSet.from_points([p])
    assert ps.row(0) == p


# -- multiset semantics ----------------------------------------------------------


def test_frequency_list_multiset_equality():
    assert canon([(1, 2), (0, 5)]) == canon([(0, 5), (1, 2)])
    assert canon([(1, 2)]) != canon([(1, 3)])


# -- text formats ----------------------------------------------------------------


def test_dataset_roundtrip(tmp_path):
    ps = cf.generate_points(40, 3, 5, seed=77)
    path = tmp_path / "d.txt"
    cf.write_dataset(ps, path)
    back = cf.read_dataset(path, d=3)
    assert back.n == ps.n and back.d == 3
    # same answers come out regardless of internal id permutation
    q = cf.BoxQuery.dominance((500.0, 500.0, 500.0))
    by_label = lambda inst: sorted(
        (inst.label_of(c), w) for c, w in cf.brute_force(inst, q)
    )
    assert by_label(back) == by_label(ps)


def _writable(label):
    return "#" not in label and not any(ch.isspace() for ch in label)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(lambda d: st.tuples(
        st.just(d),
        st.lists(st.text(min_size=1, max_size=6).filter(_writable),
                 min_size=1, max_size=4, unique=True),
        st.lists(st.tuples(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=d, max_size=d),
            st.integers(0, 3),
            st.integers(-5, 5),
        ), min_size=1, max_size=10),
    ))
)
def test_dataset_roundtrip_property(case):
    d, labels, rows = case
    coords = [c for c, _, _ in rows]
    colors = [i % len(labels) for _, i, _ in rows]
    weights = [w for _, _, w in rows]
    ps = cf.PointSet(coords, colors, weights, labels=labels)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.txt")
        cf.write_dataset(ps, path)
        back = cf.read_dataset(path, d=d)
    assert back.coords.tolist() == ps.coords.tolist()
    assert back.weights.tolist() == weights
    assert [back.label_of(c) for c in back.colors.tolist()] == [labels[c] for c in colors]


@pytest.mark.parametrize("labels", [["c d"], ["x#y"], [""], ["a\tb"], ["a", "a"]])
def test_dataset_unwritable_labels_rejected(tmp_path, labels):
    ps = cf.PointSet([[float(i)] for i in range(len(labels))], list(range(len(labels))),
                     labels=labels)
    with pytest.raises(cf.MalformedInputError):
        cf.write_dataset(ps, tmp_path / "d.txt")


@pytest.mark.parametrize("weight", [2.5, 7.0, (1, 2)])
def test_dataset_noninteger_weights_rejected(tmp_path, weight):
    # read_dataset reads integer weights only, so these could not come back
    ps = cf.PointSet([[0.0], [1.0]], [0, 1], [weight, 3], mode=cf.MAX_SEMIGROUP)
    path = tmp_path / "d.txt"
    with pytest.raises(cf.MalformedInputError):
        cf.write_dataset(ps, path)
    assert not path.exists()
    # integers of any type are written as integers and read back
    ps = cf.PointSet([[0.0], [1.0], [2.0]], [0, 1, 0], [np.int64(7), True, 3],
                     mode=cf.MAX_SEMIGROUP)
    cf.write_dataset(ps, path)
    assert cf.read_dataset(path, d=1, mode=cf.MAX_SEMIGROUP).weight_list() == [7, 1, 3]


def test_dataset_weights_column(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("# weighted points\n1.5 0.5 red 7\n2.5 1.5 blue 3\n")
    ps = cf.read_dataset(path, d=2)
    assert ps.weights.tolist() == [7, 3]
    assert ps.labels == ("red", "blue")


def test_dataset_dimension_inference(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("1.0 2.0 red\n3.0 4.0 blue\n")
    assert cf.read_dataset(path).d == 2


def test_dataset_bad_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0 2.0 red\n1.0 blue\n")
    with pytest.raises(cf.MalformedInputError):
        cf.read_dataset(path, d=2)


def test_query_roundtrip_with_infinities(tmp_path):
    qs = [
        cf.BoxQuery([(-INF, 3.5), (1.25, INF)]),
        cf.BoxQuery([(0.0, 1.0), (-INF, INF)]),
    ]
    path = tmp_path / "q.txt"
    cf.write_queries(qs, path)
    assert cf.read_queries(path) == qs


def test_query_file_literal_inf_tokens(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text("-inf 5.0 2.0 inf\n")
    (q,) = cf.read_queries(path)
    assert q.bounds == ((-INF, 5.0), (2.0, INF))


# -- sessions ---------------------------------------------------------------------


def test_concurrent_sessions_do_not_interfere():
    ps = cf.generate_points(100, 2, 8, seed=50)
    t = cf.build_dominance(ps, 2, s=4)
    s1, s2 = t.new_session(), t.new_session()
    q1 = cf.BoxQuery.dominance((400.0, 600.0))
    q2 = cf.BoxQuery.dominance((800.0, 200.0))
    a_only = canon(t.query(q1, s1))
    b_only = canon(t.query(q2, s2))
    # interleave on the same structure
    r1 = t.query(q1, s1)
    r2 = t.query(q2, s2)
    assert canon(r1) == a_only and canon(r2) == b_only


@pytest.mark.parametrize("build", [
    lambda ps: cf.build_dominance(ps, 2, s=4, mode=ps.mode),
    lambda ps: cf.build_box(ps, s=4, bounded_axes=(0, 1), mode=ps.mode),
], ids=["dominance", "box"])
def test_session_of_another_structure_rejected(build):
    few = build(cf.generate_points(60, 2, 3, seed=51))
    many = build(cf.generate_points(60, 2, 12, seed=52))
    maxed = build(cf.generate_points(60, 2, 12, seed=52, mode=cf.MAX_SEMIGROUP))
    q = cf.BoxQuery.dominance((2000.0, 2000.0))
    # fewer colors than the structure, or count cells for a max structure
    for owner, struct in ((few, many), (many, maxed)):
        session = owner.new_session()
        with pytest.raises(cf.ContractViolationError):
            struct.query(q, session)
        assert session.accumulator.is_fully_reset()
    # a session over more colors in the same mode serves
    assert few.query(q, many.new_session()) == few.query(q)
