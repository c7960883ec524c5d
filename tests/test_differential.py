"""Differential tests: every public query entry point against brute_force.

Instances live on a small integer grid, so duplicate coordinates are
common, and query bounds fall on and between grid values, so empty slabs
occur.  Count weights range over [-3, 3], which makes zero weights and
cancelling totals common; semigroup runs use max over the same integers.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import colorfreq as cf
from _util import canon

INF = float("inf")
EXAMPLES = settings(max_examples=60, deadline=None)


@st.composite
def instances(draw, d=None, max_n=30):
    """(PointSet, grid): colored points with integer coordinates in [0, grid]."""
    if d is None:
        d = draw(st.integers(1, 3))
    n = draw(st.integers(0, max_n))
    grid = draw(st.integers(1, 10))
    phi = draw(st.integers(1, 6))
    cell = st.integers(0, grid)
    coords = draw(st.lists(st.tuples(*[cell] * d), min_size=n, max_size=n))
    colors = draw(st.lists(st.integers(0, phi - 1), min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    mode = draw(st.sampled_from([cf.COUNT, cf.MAX_SEMIGROUP]))
    coords = np.asarray(coords, dtype=np.float64).reshape(n, d)
    return cf.PointSet(coords, colors, weights, mode=mode), grid


def fanouts(n):
    return st.integers(2, max(2, n))


def value(grid):
    """A bound on a grid value or halfway between two, just outside included."""
    return st.integers(-1, 2 * grid + 1).map(lambda v: v / 2)


@st.composite
def boxes(draw, d, grid, two_sided_axes=()):
    """A box with an upper bound on every axis and a lower bound on the listed ones."""
    bounds = []
    for axis in range(d):
        hi = draw(st.one_of(value(grid), st.just(INF)))
        lo = -INF
        if axis in two_sided_axes and draw(st.booleans()):
            lo = draw(value(grid).filter(lambda v: v <= hi))
        bounds.append((lo, hi))
    return cf.BoxQuery(bounds)


def corners(d, grid, count=4):
    return st.lists(st.tuples(*[value(grid)] * d).map(cf.BoxQuery.dominance),
                    min_size=0, max_size=count)


def assert_oracle(ps, q, got):
    assert canon(got) == canon(cf.brute_force(ps, q)), q


@EXAMPLES
@given(st.data())
def test_1d_prefix_and_interval(data):
    # intervals are answered by the d = 1 box, in every weight mode
    ps, grid = data.draw(instances(d=1))
    f = cf.build_1d(ps)
    box = cf.build_box(ps, s=data.draw(fanouts(ps.n)), bounded_axes=(0,))
    for _ in range(3):
        hi = data.draw(value(grid))
        assert_oracle(ps, cf.BoxQuery([(-INF, hi)]), f.query((hi,)))
        lo = data.draw(value(grid).filter(lambda v: v <= hi))
        q = cf.BoxQuery([(lo, hi)])
        assert_oracle(ps, q, box.query(q))


@EXAMPLES
@given(st.data())
def test_dominance_every_dimension(data):
    ps, grid = data.draw(instances())
    tree = cf.build_dominance(ps, ps.d, s=data.draw(fanouts(ps.n)))
    for q in data.draw(corners(ps.d, grid)):
        assert_oracle(ps, q, tree.query(q))


@EXAMPLES
@given(st.data())
def test_box_random_bounded_axes(data):
    ps, grid = data.draw(instances())
    axes = data.draw(st.sets(st.integers(0, ps.d - 1)))
    box = cf.build_box(ps, s=data.draw(fanouts(ps.n)), bounded_axes=axes)
    for _ in range(4):
        q = data.draw(boxes(ps.d, grid, axes))
        assert_oracle(ps, q, box.query(q))


@EXAMPLES
@given(st.data())
def test_offline_dominance_any_sweep_axis(data):
    ps, grid = data.draw(instances())
    queries = list(enumerate(data.draw(corners(ps.d, grid, count=8))))
    got = {}
    job = cf.OfflineJob(ps, queries, data.draw(st.integers(0, ps.d - 1)),
                        data.draw(fanouts(ps.n)),
                        lambda qid, entries: got.setdefault(qid, []).append(entries))
    cf.answer_offline_dominance(job)
    assert sorted(got) == [qid for qid, _ in queries]
    for qid, q in queries:
        (entries,) = got[qid]
        assert_oracle(ps, q, entries)


@EXAMPLES
@given(st.data())
def test_offline_3sided(data):
    ps, grid = data.draw(instances(d=2))
    queries = list(enumerate(
        data.draw(st.lists(boxes(2, grid, two_sided_axes=(0,)), max_size=8))
    ))
    got = {}
    cf.answer_offline_3sided(ps, queries, data.draw(fanouts(ps.n)),
                             lambda qid, entries: got.setdefault(qid, []).append(entries))
    assert sorted(got) == [qid for qid, _ in queries]
    for qid, q in queries:
        (entries,) = got[qid]
        assert_oracle(ps, q, entries)
