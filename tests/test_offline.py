"""Offline sweeps: online equivalence, working space, stream order, merges."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import colorfreq as cf
from _util import (
    canon,
    random_corner,
    random_query,
    reference_3sided,
    reference_dominance,
    walk_ranks,
)
from colorfreq import offline
from colorfreq.core import count_le
from colorfreq.offline import _LiveMeter, _sweep_dominance

INF = float("inf")


def run_dominance(ps, queries, s=4, sweep_axis=0):
    got = {}
    order = []

    def sink(qid, entries):
        got[qid] = canon(entries)
        order.append(qid)

    job = cf.OfflineJob(ps, queries, sweep_axis, s, sink)
    summary = cf.answer_offline_dominance(job)
    return got, order, summary


def test_offline_matches_online_500_points():
    ps = cf.generate_points(500, 2, 15, seed=1)
    queries = [(i, q) for i, q in enumerate(cf.generate_queries(100, 2, seed=2))]
    got, order, summary = run_dominance(ps, queries)
    online = cf.build_dominance(ps, 2, s=4)
    for qid, q in queries:
        assert got[qid] == canon(online.query(q))
    assert summary.emitted == 100
    assert len(order) == len(set(order)) == 100
    assert summary.peak_live_entries <= ps.n
    assert summary.total_built == summary.total_destroyed
    assert summary.emit_order_violations == 0


def test_empty_batch_builds_nothing():
    ps = cf.generate_points(300, 2, 8, seed=3)
    got, order, summary = run_dominance(ps, [])
    assert summary.emitted == 0
    assert summary.total_built == summary.total_destroyed == 0
    assert summary.peak_live_entries == 0   # only the skeleton remains
    assert 0 < summary.skeleton_nodes <= 3 * ps.n


def test_empty_batches_count_no_skeleton_nodes():
    # no points: neither sweep has a skeleton, so neither counts a node
    ps = cf.generate_points(0, 2, 3, seed=0)
    assert cf.answer_offline_3sided(ps, [], 2).skeleton_nodes == 0
    assert run_dominance(ps, [], s=2)[2].skeleton_nodes == 0


@pytest.mark.parametrize("s", [2, 4, 16])
def test_dominance_sweep_builds_each_strip_at_most_once(s):
    # the ranks whose walk holds a strip form one run and queries are
    # pinned in rank order, so no strip is built twice: at most n - 1
    # builds, and no more entries than the eager tree stores.  Twice as
    # many queries as points pin most ranks, so most strips are built.
    for seed in range(4):
        grid = None if seed % 2 else 40
        ps = cf.generate_points(400, 2, 12, seed=seed, grid=grid)
        rng = np.random.default_rng(seed + 50)
        hi = 1000.0 if grid is None else grid
        queries = [(i, random_corner(rng, 2, lo=0.0, hi=hi)) for i in range(800)]
        eager = cf.DominanceTree(ps, s).stored_entries  # the same on either axis
        strips, entries = cf.offline_build_bound(ps.n, s)
        assert (strips, entries) == (ps.n - 1, cf.dominance_space_bound(ps.n, s, 2))
        for axis in (0, 1):
            summary = run_dominance(ps, queries, s=s, sweep_axis=axis)[2]
            assert 0 < summary.total_built <= strips
            assert summary.entries_built <= eager <= entries


@pytest.mark.parametrize("s", [2, 4, 16])
def test_3sided_batch_builds_within_the_offline_bound(s):
    # each swept node sweeps its two children, and each sweep builds a
    # strip at most once: no more entries than the one-layer box stores
    # over the same points, and within the bound summed over the layer
    for seed in range(4):
        grid = None if seed % 2 else 40
        ps = cf.generate_points(400, 2, 12, seed=seed, grid=grid)
        rng = np.random.default_rng(seed + 60)
        hi = 1000.0 if grid is None else grid
        queries = [(i, random_query(rng, 2, sides=(2, 1), lo=0.0, hi=hi)) for i in range(800)]
        summary = collect_3sided(ps, queries, s=s)[1]
        strips, entries = cf.offline_build_bound(ps.n, s, 2, 1)
        assert entries == cf.box_space_bound(ps.n, s, 2, 1)
        box = cf.build_box(ps, s=s, bounded_axes=(0,)).stored_entries
        assert 0 < summary.total_built <= strips
        assert summary.entries_built <= box <= entries


def test_identical_corners_emit_identically():
    ps = cf.generate_points(120, 2, 6, seed=4)
    q = cf.BoxQuery.dominance((500.0, 500.0))
    queries = [(i, q) for i in range(7)]
    got, order, summary = run_dominance(ps, queries)
    assert summary.emitted == 7
    vals = set(got.values())
    assert len(vals) == 1
    assert vals.pop() == canon(cf.brute_force(ps, q))


def test_emission_sorted_by_sweep_coordinate():
    rng = np.random.default_rng(5)
    ps = cf.generate_points(200, 2, 9, seed=6)
    queries = [(i, random_corner(rng, 2)) for i in range(60)]
    coord = {i: q.bounds[0][1] for i, q in queries}
    got, order, summary = run_dominance(ps, queries)
    assert summary.emit_order_violations == 0
    emitted_coords = [coord[qid] for qid in order]
    assert emitted_coords == sorted(emitted_coords)


def test_sweep_axis_parameter():
    rng = np.random.default_rng(7)
    ps = cf.generate_points(180, 2, 7, seed=8)
    queries = [(i, random_corner(rng, 2)) for i in range(40)]
    got, order, summary = run_dominance(ps, queries, sweep_axis=1)
    coord = {i: q.bounds[1][1] for i, q in queries}
    emitted = [coord[qid] for qid in order]
    assert emitted == sorted(emitted)
    for qid, q in queries:
        assert got[qid] == canon(cf.brute_force(ps, q))
    # a numpy integer is an axis; a string or a float is not
    assert run_dominance(ps, queries, sweep_axis=np.int64(1))[0] == got
    for axis in ("0", 1.0, 2):
        with pytest.raises(cf.MalformedInputError):
            run_dominance(ps, queries, sweep_axis=axis)


def test_one_live_copy_invariant():
    # one walk's ranges tile the ranks below its end (see
    # test_strip_tree_matches_its_definition), and the blocks held never
    # pass the last walk's entries (see
    # test_planned_blocks_hold_at_most_the_last_pinned_rank), so at most n
    # entries are live at once
    ps = cf.generate_points(250, 2, 8, seed=9)
    rng = np.random.default_rng(10)
    corners = rng.uniform(0, 1000, (50, 2))
    corners = corners[np.argsort(corners[:, 0], kind="stable")]
    skel = cf.DominanceTree._forest(ps.coords, ps.colors, ps.weights, 4, ps.phi, ps.mode)
    rq = np.searchsorted(np.asarray(skel.sorted0), corners[:, 0], "right")
    summary = cf.SweepSummary(ps.n, len(corners), 2, 4, 0)
    meter = _LiveMeter()
    session = cf.QuerySession(cf.ColorAccumulator(ps.phi, ps.mode))
    out = list(_sweep_dominance(skel, [rq], [corners[:, 1:].tolist()], [session],
                                summary, meter))
    assert out == list(range(50))
    assert meter.peak <= ps.n
    assert meter.live == 0


def test_offline_d3_eager_inner_structures():
    rng = np.random.default_rng(11)
    ps = cf.generate_points(150, 3, 8, seed=12)
    queries = [(i, random_corner(rng, 3)) for i in range(40)]
    got, order, summary = run_dominance(ps, queries)
    for qid, q in queries:
        assert got[qid] == canon(cf.brute_force(ps, q))
    # one live 2-D tree layer
    assert summary.peak_live_entries <= cf.dominance_space_bound(ps.n, 4, 2)


def test_offline_d1():
    rng = np.random.default_rng(13)
    ps = cf.generate_points(90, 1, 5, seed=14)
    queries = [(i, random_corner(rng, 1)) for i in range(20)]
    got, order, summary = run_dominance(ps, queries, s=2)
    for qid, q in queries:
        assert got[qid] == canon(cf.brute_force(ps, q))
    assert summary.total_built == summary.total_destroyed == 1


def test_offline_d1_leaves_cancelled_colors_out():
    ps = cf.PointSet.from_points([(1.0, 0, 1), (2.0, 0, -1), (3.0, 1, 1)])
    queries = [(0, cf.BoxQuery.dominance((5.0,))), (1, cf.BoxQuery.dominance((2.0,)))]
    got, _, _ = run_dominance(ps, queries, s=2)
    assert got == {0: ((1, 1),), 1: ()}


def test_non_dominance_query_rejected():
    ps = cf.generate_points(50, 2, 4, seed=15)
    bad = cf.BoxQuery([(1.0, 5.0), (-INF, 3.0)])
    with pytest.raises(cf.UnsupportedShapeError):
        cf.answer_offline_dominance(cf.OfflineJob(ps, [(0, bad)], 0, 2, None))


def test_peak_space_report_keys():
    ps = cf.generate_points(80, 2, 5, seed=16)
    _, _, summary = run_dominance(ps, [(0, cf.BoxQuery.dominance((500.0, 500.0)))])
    report = cf.peak_space_report(summary)
    assert set(report) == {
        "peakLiveEntries", "totalBuilt", "totalDestroyed", "emitOrderViolations",
    }
    assert report["totalBuilt"] == report["totalDestroyed"]
    assert report["emitOrderViolations"] == 0


# -- three-sided batches -------------------------------------------------------


def collect_3sided(ps, queries, s=4):
    got = {}
    summary = cf.answer_offline_3sided(
        ps, queries, s, lambda qid, e: got.__setitem__(qid, canon(e))
    )
    return got, summary


def test_3sided_spanning_all_x_equals_dominance():
    ps = cf.generate_points(150, 2, 8, seed=17)
    q3 = cf.BoxQuery([(-INF, INF), (-INF, 400.0)])
    got, summary = collect_3sided(ps, [(0, q3)])
    dom = cf.brute_force(ps, cf.BoxQuery([(-INF, INF), (-INF, 400.0)]))
    assert got[0] == canon(dom)


def test_3sided_random_batch_oracle_equal():
    rng = np.random.default_rng(18)
    ps = cf.generate_points(800, 2, 14, seed=19)
    queries = [(i, random_query(rng, 2, sides=(2, 1))) for i in range(200)]
    got, summary = collect_3sided(ps, queries)
    for qid, q in queries:
        assert got[qid] == canon(cf.brute_force(ps, q))
    assert summary.emitted == 200
    assert summary.total_built == summary.total_destroyed
    assert summary.emit_order_violations == 0


def test_3sided_empty_slab():
    ps = cf.PointSet.from_points([((1.0, 1.0), 0), ((10.0, 1.0), 1)])
    q = cf.BoxQuery([(3.0, 7.0), (-INF, 5.0)])
    got, _ = collect_3sided(ps, [(0, q)], s=2)
    assert got[0] == ()



_TIE_POINTS = [((1.0, 1.0), 0), ((2.0, 2.0), 1), ((3.0, 3.0), 0), ((4.0, 1.0), 1), ((5.0, 2.0), 0)]
_TIE_BATCHES = {
    "dominance": [cf.BoxQuery.dominance((4.0, 2.0)), cf.BoxQuery.dominance((4.0, 3.0))],
    "3sided-split": [cf.BoxQuery([(1.0, 4.0), (-INF, 2.0)]), cf.BoxQuery([(2.0, 5.0), (-INF, 2.0)])],
    "3sided-leaf": [cf.BoxQuery([(4.0, 5.0), (-INF, 2.0)]), cf.BoxQuery([(4.5, 5.0), (-INF, 2.0)])],
    "3sided-empty": [cf.BoxQuery([(5.5, 6.0), (-INF, 2.0)]), cf.BoxQuery([(6.0, 7.0), (-INF, 2.0)])],
}


@pytest.mark.parametrize("qids", [(0, "b"), ("b", 0)])
@pytest.mark.parametrize("batch", sorted(_TIE_BATCHES))
def test_tied_sweep_coordinates_stream_in_input_order(batch, qids):
    # ids of mixed types are never compared: ties keep the input order
    ps = cf.PointSet.from_points(_TIE_POINTS)
    boxes = _TIE_BATCHES[batch]
    stream = []

    def sink(qid, entries):
        stream.append((qid, canon(entries)))

    queries = list(zip(qids, boxes))
    if batch == "dominance":
        cf.answer_offline_dominance(cf.OfflineJob(ps, queries, 0, 2, sink))
    else:
        cf.answer_offline_3sided(ps, queries, 2, sink)
    assert stream == [(qid, canon(cf.brute_force(ps, q))) for qid, q in queries]

def test_3sided_merge_touch_counter():
    rng = np.random.default_rng(20)
    ps = cf.generate_points(300, 2, 10, seed=21)
    queries = [(i, random_query(rng, 2, sides=(2, 1))) for i in range(80)]
    got, summary = collect_3sided(ps, queries)
    for qid, touches, k1, k2 in summary.merge_touches_per_query:
        assert touches == k1 + k2
    assert summary.merge_entry_touches == sum(
        t for _, t, _, _ in summary.merge_touches_per_query
    )


def test_3sided_semigroup_mode():
    rng = np.random.default_rng(22)
    ps = cf.generate_points(150, 2, 7, seed=23, mode=cf.MAX_SEMIGROUP)
    queries = [(i, random_query(rng, 2, sides=(2, 1))) for i in range(50)]
    got, _ = collect_3sided(ps, queries)
    for qid, q in queries:
        assert got[qid] == canon(cf.brute_force(ps, q))


def test_3sided_shape_errors():
    ps = cf.generate_points(40, 2, 4, seed=24)
    with pytest.raises(cf.UnsupportedShapeError):
        cf.answer_offline_3sided(ps, [(0, cf.BoxQuery([(0.0, 1.0), (2.0, 3.0)]))], 2)
    with pytest.raises(cf.MalformedInputError):
        cf.answer_offline_3sided(cf.generate_points(10, 3, 2, seed=1), [], 2)


def test_3sided_peak_space_stays_linear():
    ps = cf.generate_points(600, 2, 10, seed=25)
    rng = np.random.default_rng(26)
    queries = [(i, random_query(rng, 2, sides=(2, 1))) for i in range(100)]
    _, summary = collect_3sided(ps, queries)
    assert summary.peak_live_entries <= ps.n


# -- planned blocks ------------------------------------------------------------


def _weighted(ps, weights, seed):
    rng = np.random.default_rng(seed)
    if weights == "semigroup":
        return cf.PointSet(ps.coords, ps.colors, rng.integers(0, 50, ps.n).tolist(),
                           mode=cf.MAX_SEMIGROUP)
    if weights == "signed":  # non-positive counts, so some colors cancel
        return cf.PointSet(ps.coords, ps.colors, rng.integers(-2, 3, ps.n))
    return ps


def _strip_runs(forest, xs):
    """(position, enter, pop) of each strip [parent[c], c) the walks of
    every tree i to ``xs[i]`` hold, in the order the walks enter them, at
    one step tree by tree: the step at which one enters, and the next step
    whose walk does not hold it (the number of steps for none)."""
    runs = []
    steps = len(xs[0])
    walks = [[set(walk_ranks(forest, x, i)) for x in xs[i]] for i in range(len(xs))]
    for t in range(steps):
        for i, off in enumerate(forest.start[:-1]):
            for c in walk_ranks(forest, xs[i][t], i):
                if t == 0 or c not in walks[i][t - 1]:
                    pop = next((u for u in range(t + 1, steps) if c not in walks[i][u]), steps)
                    # the steps whose walk holds a strip form one run
                    assert all(c not in walks[i][u] for u in range(pop, steps))
                    runs.append((off + c, off + forest.parent[i][c], t, pop))
    return runs


def _check_plan(forest, xs, plan, block, budget):
    """The entries held at each step under ``plan``, checked against its
    definition: blocks list the strips in the order the walks enter them,
    each built when its first strip enters and released when its last one
    pops, of at most ``block`` entries (or one strip), with no look-ahead
    past a step whose own strips exceed ``block``, holding what each
    step's walks hold and never more than ``budget``."""
    steps = len(xs[0])
    runs = _strip_runs(forest, xs)
    assert [c for *_, cut in plan for c in cut.tolist()] == [c for c, *_ in runs]
    assert [c for _, _, lo, _ in plan for c in lo.tolist()] == [lo for _, lo, _, _ in runs]
    enter = {c: t for c, _, t, _ in runs}
    pop = {c: p for c, _, _, p in runs}
    own = [sum(c - lo for c, lo, t, _ in runs if t == u) for u in range(steps)]
    held = [0] * steps
    for first, release, lo, cut in plan:
        cuts = cut.tolist()
        entries = int((cut - lo).sum())
        assert first == enter[cuts[0]]
        assert release == max(pop[c] for c in cuts)
        assert entries <= block or len(cuts) == 1
        if own[first] > block:  # no look-ahead
            assert all(enter[c] == first for c in cuts)
        for t in range(first, release):
            held[t] += entries
    assert max(held) <= budget
    assert all(h >= w for h, w in zip(held, np.sum(xs, axis=0).tolist()))
    return held


class _Meters(list):
    """Every ``_LiveMeter`` made while patched in, in order."""

    def __call__(self):
        self.append(_LiveMeter())
        return self[-1]


@pytest.mark.parametrize("weights", ["count", "signed", "semigroup"])
@pytest.mark.parametrize("grid", [None, 150])
@pytest.mark.parametrize("s", [2, 4, 16])
def test_planned_blocks_hold_at_most_the_last_pinned_rank(s, grid, weights, monkeypatch):
    # a block is built at its first strip's step and held until its last
    # strip pops; the entries held never pass the sweep's budget: for a
    # dominance sweep over one tree its last pinned rank P, the peak of a
    # sweep that builds each strip on its own, and the meter follows the
    # plan step by step; for each node of a three-sided batch, a sweep over
    # the forest of its two children, the batch's peak, the largest sum P
    # of the children's last pinned ranks
    ps = _weighted(cf.generate_points(600, 2, 12, seed=s, grid=grid), weights, s)
    rng = np.random.default_rng(s + 7)
    hi = 1000.0 if grid is None else grid
    corners = rng.uniform(-5, hi + 5, (250, 2))
    dominance = [(i, cf.BoxQuery.dominance(c)) for i, c in enumerate(corners.tolist())]
    three_sided = [(i, random_query(rng, 2, sides=(2, 1), lo=-5, hi=hi + 5)) for i in range(250)]
    plans = []

    def recording(forest, xs, batched, budget):
        plans.append((forest, xs, real_plan(forest, xs, batched, budget), budget))
        return plans[-1][2]

    real_plan = offline._plan
    monkeypatch.setattr(offline, "_plan", recording)
    for block in (offline._BLOCK, 48):  # the default, and a cap most steps pass
        monkeypatch.setattr(offline, "_BLOCK", block)
        plans.clear()
        meters = _Meters()
        monkeypatch.setattr(offline, "_LiveMeter", meters)
        seen = []
        sink = lambda qid, entries: seen.append((qid, meters[-1].live, entries))  # noqa: E731
        cf.answer_offline_dominance(cf.OfflineJob(ps, dominance, 0, s, sink))
        (skel, xs, plan, budget), = plans
        held = _check_plan(skel, xs, plan, block, budget)
        assert budget == max(held) == held[-1] == meters[-1].peak
        assert meters[-1].live == 0
        assert any(len(cut) > 1 for *_, cut in plan)
        step = {x: t for t, x in enumerate(xs[0].tolist())}
        for qid, live, entries in seen:
            assert canon(entries) == canon(cf.brute_force(ps, dominance[qid][1]))
            x = max(count_le(skel.sorted0, corners[qid][0]) - 1, 0)
            assert live == held[step[x]]

        plans.clear()
        summary = cf.answer_offline_3sided(ps, three_sided, s)
        for forest, xs, plan, budget in plans:
            _check_plan(forest, xs, plan, block, budget)
        peaks = [sum(x[-1] for x in xs) for _, xs, _, _ in plans]
        assert all(len(forest.start) == 3 for forest, *_ in plans)
        assert {budget for *_, budget in plans} == {max(peaks)}
        assert summary.peak_live_entries == max(peaks) == meters[-1].peak <= ps.n
        assert meters[-1].live == 0
    # some block takes strips of both children
    assert any((cut < forest.start[1]).any() and (cut >= forest.start[1]).any()
               for forest, _, plan, _ in plans for *_, cut in plan)


def _offline_runs(entry, ps, queries, s, reference=False):
    """(emitted (qid, answer) stream, SweepSummary fields) of one batch, or
    of its reference: child by child and strip by strip."""
    stream = []
    sink = lambda qid, entries: stream.append((qid, entries))  # noqa: E731
    if entry == "dominance" and reference:
        summary = reference_dominance(ps, queries, ps.d - 1, s, sink)
    elif entry == "dominance":
        summary = cf.answer_offline_dominance(cf.OfflineJob(ps, queries, ps.d - 1, s, sink))
    elif reference:
        summary = reference_3sided(ps, queries, s, sink)
    else:
        summary = cf.answer_offline_3sided(ps, queries, s, sink)
    return stream, dataclasses.asdict(summary)


@pytest.mark.parametrize("entry, d, weights", [
    ("dominance", 2, "signed"), ("dominance", 2, "semigroup"), ("dominance", 3, "count"),
    ("3sided", 2, "signed"), ("3sided", 2, "semigroup"),
])
@pytest.mark.parametrize("s", [2, 16])
def test_planned_sweeps_match_per_strip_reference(entry, d, weights, s):
    n = 1500 if d == 2 else 250
    ps = _weighted(cf.generate_points(n, d, 20, seed=d + s, grid=n // 2), weights, s)
    rng = np.random.default_rng(s)
    sides = (1,) * d if entry == "dominance" else (2, 1)
    queries = [(i, random_query(rng, d, sides=sides, lo=-5, hi=n // 2 + 5)) for i in range(300)]
    queries += queries[:20]  # repeated corners pin to one step
    assert _offline_runs(entry, ps, queries, s) == _offline_runs(entry, ps, queries, s, True)


CONCAT = cf.SemigroupMode(lambda a, b: a + b, name="concat")


def _tied(n, grid, weights, seed):
    """Planar points on a ``grid`` x ``grid`` grid, so coordinates tie, with
    signed counts in [-2, 2] (totals cancel), max weights past 2**64 built
    one by one (equal ones are distinct objects) or tuples that
    concatenate in order."""
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, grid, (n, 2)).astype(float)
    colors = rng.integers(0, max(1, n // 5), n)
    if weights == "signed":
        return cf.PointSet(coords, colors, rng.integers(-2, 3, n))
    if weights == "max":
        return cf.PointSet(coords, colors, [int(str(2**64 + int(w))) for w in rng.integers(0, 3, n)],
                           mode=cf.MAX_SEMIGROUP)
    return cf.PointSet(coords, colors, [(i,) for i in range(n)], mode=CONCAT)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 400),
    st.sampled_from([3, 8, 30]),
    st.sampled_from(["signed", "max", "concat"]),
    st.sampled_from([2, 4, 16]),
    st.sampled_from([1, 24, 1 << 10]),
    st.integers(0, 2**31),
)
def test_3sided_sweep_matches_the_child_by_child_merge(n, grid, weights, s, block, seed):
    # one sweep per node over both children, with blocks planned across
    # them, streams what two lockstepped child sweeps merged pairwise
    # stream, answer for answer in order, and sums up to the same counters;
    # a max answer is the very object the merge picked.  Small blocks make
    # a node's sweep span many of them.
    ps = _tied(n, grid, weights, seed)
    s = min(s, max(2, n))
    bounds = np.random.default_rng(seed).integers(-1, grid + 1, (60, 3)).tolist()
    queries = [(i, cf.BoxQuery([(min(a, b), max(a, b)), (-INF, y)]))
               for i, (a, b, y) in enumerate(bounds)]
    with mock.patch.object(offline, "_BLOCK", block):
        got, summary = _offline_runs("3sided", ps, queries, s)
    want, reference = _offline_runs("3sided", ps, queries, s, True)
    assert summary == reference
    assert [qid for qid, _ in got] == [qid for qid, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert a == b
        if weights == "max":
            assert all(x is y for (_, x), (_, y) in zip(a, b))


def test_plane_sweeps_build_only_blocks():
    ps = cf.generate_points(800, 2, 10, seed=30)
    rng = np.random.default_rng(31)
    dominance = [(i, random_corner(rng, 2)) for i in range(100)]
    three_sided = [(i, random_query(rng, 2, sides=(2, 1))) for i in range(100)]
    with mock.patch.object(cf.DominanceTree, "__init__", side_effect=AssertionError) as init:
        for axis in (0, 1):
            cf.answer_offline_dominance(cf.OfflineJob(ps, dominance, axis, 4))
        cf.answer_offline_3sided(ps, three_sided, 4)
    assert init.call_count == 0
