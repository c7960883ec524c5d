"""Offline sweeps: online equivalence, working space, stream order, merges."""

import math

import numpy as np
import pytest

import colorfreq as cf
from _util import canon, random_corner, random_query
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


def test_one_live_copy_invariant():
    # instrumented disjointness assertion inside the sweep machinery
    ps = cf.generate_points(250, 2, 8, seed=9)
    rng = np.random.default_rng(10)
    corners = [(i, tuple(rng.uniform(0, 1000, 2))) for i in range(50)]
    summary = cf.SweepSummary(ps.n, len(corners), 2, 4, 0)
    meter = _LiveMeter()
    out = list(
        _sweep_dominance(
            ps.coords, ps.colors, ps.weight_list(), ps.mode, ps.phi,
            corners, 0, 4, summary, meter, check_disjoint=True,
        )
    )
    assert len(out) == 50
    assert meter.peak <= ps.n
    assert meter.live == 0


def test_offline_d3_eager_inner_structures():
    rng = np.random.default_rng(11)
    ps = cf.generate_points(150, 3, 8, seed=12)
    queries = [(i, random_corner(rng, 3)) for i in range(40)]
    got, order, summary = run_dominance(ps, queries)
    for qid, q in queries:
        assert got[qid] == canon(cf.brute_force(ps, q))
    s = 4
    bound = ps.n * (s - 1) * (cf.ceil_log(s, ps.n) + 1)  # one live 2-D tree layer
    assert summary.peak_live_entries <= bound


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
