"""The fused report kernel against the per-strip query path it replaced, and
concurrent readers of one structure."""

import itertools
import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import colorfreq as cf
from _util import random_query, reference_queries

CONCAT = cf.SemigroupMode(lambda a, b: a + (b or ()), name="concat")


def _instance(n, d, grid, mode_name, big, seed):
    """Points whose weights tie: signed counts in [-2, 2] that cancel, max
    weights built one by one (so equal ones are distinct objects), or
    tuples that concatenate in order."""
    rng = np.random.default_rng(seed)
    coords = (rng.integers(0, grid, (n, d)).astype(float) if grid
              else rng.uniform(0, 1000, (n, d)))
    colors = rng.integers(0, max(1, n // 4), n)
    if mode_name == "count":
        return cf.PointSet(coords, colors, rng.integers(-2, 3, n), mode=cf.COUNT)
    if mode_name == "max":
        base = 10**20 if big else 1000
        weights = [int(str(base + int(w))) for w in rng.integers(0, 3, n)]
        return cf.PointSet(coords, colors, weights, mode=cf.MAX_SEMIGROUP)
    return cf.PointSet(coords, colors, [(int(w), i) for i, w in enumerate(rng.integers(0, 3, n))],
                       mode=CONCAT)


def _same(got, want):
    """Equal answers in drain order.  A max weight is one of the points' own
    objects, so it must be the very same one: equal weights tie, and the
    earlier wins."""
    assert got == want
    if want and isinstance(want[0][1], int) and want[0][1] >= 1000:
        assert all(a is b for (_, a), (_, b) in zip(got, want))


def _run(struct, queries):
    """Per query: the answer and every counter."""
    session = struct.new_session()
    acc = session.accumulator
    out = []
    for q in queries:
        touches = acc.touch_ops
        got = struct.query(q, session)
        out.append((got, session.probes, session.substructure_queries, session.fanout,
                    acc.touch_ops - touches))
    return out


def _check(struct, queries):
    got = _run(struct, queries)
    with reference_queries():
        want = _run(struct, queries)
    for g, w in zip(got, want):
        _same(g[0], w[0])
        assert g[1:] == w[1:]


def _offline(ps, queries, s):
    """Every offline stream and summary of ``queries`` (dominance corners)."""
    out = []
    for axis in range(ps.d):
        stream = []
        job = cf.OfflineJob(ps, list(enumerate(queries)), sweep_axis=axis, s=s,
                            sink=lambda qid, ans: stream.append((qid, ans)))
        out.append((stream, cf.answer_offline_dominance(job)))
    return out


def _three_sided(ps, queries, s):
    stream = []
    summary = cf.answer_offline_3sided(ps, list(enumerate(queries)), s,
                                       sink=lambda qid, ans: stream.append((qid, ans)))
    return [(stream, summary)]


def _check_offline(run, *args):
    got = run(*args)
    with reference_queries():
        want = run(*args)
    for (stream, summary), (ref_stream, ref_summary) in zip(got, want):
        assert [qid for qid, _ in stream] == [qid for qid, _ in ref_stream]
        for (_, a), (_, b) in zip(stream, ref_stream):
            _same(a, b)
        assert summary == ref_summary


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 48),
    st.integers(1, 3),
    st.sampled_from([None, 3, 8]),
    st.sampled_from(["count", "max", "concat"]),
    st.booleans(),
    st.sampled_from([2, 3, 16]),
    st.integers(0, 2**31 - 1),
)
def test_fused_kernel_matches_the_per_strip_path(n, d, grid, mode_name, big, s, seed):
    s = min(s, max(2, n))
    ps = _instance(n, d, grid, mode_name, big, seed)
    rng = np.random.default_rng(seed + 1)
    hi = grid + 1 if grid else 1050
    corners = [cf.BoxQuery.dominance(rng.integers(-1, hi, d).astype(float) if grid
                                     else rng.uniform(-50, hi, d)) for _ in range(12)]
    _check(cf.DominanceTree(ps, s), corners)
    for k in range(1, d + 1):
        for axes in itertools.combinations(range(d), k):
            box = cf.BoxTree(ps, s, bounded_axes=axes)
            sides = tuple(2 if a in axes else 1 for a in range(d))
            _check(box, [random_query(rng, d, sides, lo=-50, hi=hi) for _ in range(12)])
    _check_offline(_offline, ps, corners, s)
    if d == 2:
        _check_offline(_three_sided, ps,
                       [random_query(rng, 2, (2, 1), lo=-50, hi=hi) for _ in range(12)], s)


def test_concurrent_sessions_match_serial_answers():
    # four threads, each with its own sessions and its own order of the
    # work, switching as often as the interpreter allows, on a max box and a
    # count dominance tree
    box = cf.BoxTree(cf.generate_points(400, 2, 24, 3, mode=cf.MAX_SEMIGROUP), 4,
                     bounded_axes=(0, 1))
    tree = cf.DominanceTree(cf.generate_points(2000, 2, 16, 4), 8)
    work = [(box, q) for q in cf.generate_queries(60, 2, 5, sides=(2, 2))]
    work += [(tree, q) for q in cf.generate_queries(60, 2, 6)]
    serial = [struct.query(q) for struct, q in work]
    orders = [list(range(i * 30, len(work))) + list(range(i * 30)) for i in range(4)]
    results = [None] * 4

    def reader(i):
        sessions = {box: box.new_session(), tree: tree.new_session()}
        results[i] = [work[k][0].query(work[k][1], sessions[work[k][0]]) for k in orders[i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(4):
        assert results[i] == [serial[k] for k in orders[i]]
