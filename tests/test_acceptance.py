"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with -s to
see them on success).  All bound checks are exact counter comparisons with
zero tolerance; oracle comparisons are exact multiset equality.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

import colorfreq as cf
from _util import canon, random_corner, random_query

N_VALUES = (1, 2, 17, 256, 2000)
D_VALUES = (1, 2, 3)
PHI_CHOICES = lambda n: [1, 3, math.ceil(n / 10), n]

BOX_PATTERNS = {
    1: [(2,)],
    2: [(2, 1), (1, 2), (2, 2)],
    3: [(2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1), (1, 2, 2), (2, 1, 2), (2, 2, 2)],
}


def report(cid, ok, detail):
    print(f"ACCEPTANCE {cid} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {cid}: {detail}"


def s_values(n):
    vals = sorted({2, 4, 16, math.ceil(math.sqrt(n))})
    return [s for s in vals if 2 <= s <= max(2, n)]


@dataclass
class SweepRecord:
    pairs: int = 0
    mismatches: list = field(default_factory=list)
    sum_failures: list = field(default_factory=list)
    space_failures: list = field(default_factory=list)
    probe_failures: list = field(default_factory=list)
    configs: int = 0
    space_checks: int = 0
    probe_checks: int = 0
    sum_checks: int = 0
    sidedness_seen: set = field(default_factory=set)
    runtime: float = 0.0


def _check_query(rec, ps, struct, q, session):
    acc = session.accumulator
    touches_before, drains_before = acc.touch_ops, acc.drain_ops
    got = struct.query(q, session)
    want = cf.brute_force(ps, q)
    rec.pairs += 1
    rec.sidedness_seen.add((ps.d, q.sidedness))
    if canon(got) != canon(want):
        rec.mismatches.append((ps.n, ps.d, q, got, want))
    rec.sum_checks += 1
    if cf.freq_total(got) != int(q.mask(ps.coords).sum()):
        rec.sum_failures.append((ps.n, ps.d, q))
    rec.probe_checks += 1
    if isinstance(struct, cf.DominanceTree):
        bound = cf.dominance_query_bound(ps.n, struct.s, ps.d)
        if session.substructure_queries > bound:
            rec.probe_failures.append(("subq", ps.n, ps.d, struct.s, session.substructure_queries))
        # per touched color, cancelled ones included; drain visits each once
        if acc.touch_ops - touches_before > (acc.drain_ops - drains_before) * bound:
            rec.probe_failures.append(("touch", ps.n, ps.d, struct.s, acc.touch_ops - touches_before))
    else:
        two_sided = len(q.two_sided_axes())
        if session.fanout > cf.box_fanout_bound(two_sided):
            rec.probe_failures.append(("fanout", ps.n, struct.s, session.fanout))


@pytest.fixture(scope="module")
def sweep():
    rec = SweepRecord()
    rng = np.random.default_rng(20260810)
    t0 = time.perf_counter()
    config_idx = 0
    for n in N_VALUES:
        for d in D_VALUES:
            for s in s_values(n):
                phis = PHI_CHOICES(n)
                phi = max(1, phis[config_idx % len(phis)])
                grid = (3 * n) if config_idx % 2 else None
                ps = cf.generate_points(n, d, phi, seed=config_idx, grid=grid)
                hi = 3 * n if grid else 1000.0
                config_idx += 1
                rec.configs += 1

                tree = cf.build_dominance(ps, d, s=s)
                if d >= 2:
                    rec.space_checks += 1
                    if tree.stored_entries > cf.dominance_space_bound(n, s, d):
                        rec.space_failures.append((n, d, s, tree.stored_entries))
                session = tree.new_session()
                for _ in range(10):
                    _check_query(rec, ps, tree, random_corner(rng, d, -10, hi + 10), session)
                _check_query(rec, ps, tree, cf.BoxQuery.dominance([-100.0] * d), session)
                _check_query(rec, ps, tree, cf.BoxQuery.dominance([hi + 100.0] * d), session)

                if n <= 256:
                    pattern = BOX_PATTERNS[d][config_idx % len(BOX_PATTERNS[d])]
                    axes = tuple(i for i, v in enumerate(pattern) if v == 2)
                    box = cf.build_box(ps, s=s, bounded_axes=axes)
                    rec.space_checks += 1
                    if box.stored_entries > cf.box_space_bound(n, s, d, len(axes)):
                        rec.space_failures.append((n, d, s, axes, box.stored_entries))
                    bsession = box.new_session()
                    for _ in range(8):
                        # mix the structure's max pattern with lighter shapes
                        sides = tuple(
                            v if rng.random() < 0.8 else 1 for v in pattern
                        )
                        _check_query(
                            rec, ps, box, random_query(rng, d, sides, -10, hi + 10), bsession
                        )

                if d == 1 and n >= 1:
                    # intervals on a d = 1 box, at every n
                    box = cf.build_box(ps, s=s, bounded_axes=(0,))
                    bsession = box.new_session()
                    for _ in range(3):
                        lo_q, hi_q = sorted(rng.uniform(-10, hi + 10, 2))
                        _check_query(rec, ps, box, cf.BoxQuery([(lo_q, hi_q)]), bsession)
    rec.runtime = time.perf_counter() - t0
    return rec


def test_criterion_1_oracle_equivalence_online(sweep):
    spanned = all(
        (d, sd) in sweep.sidedness_seen for d in D_VALUES for sd in range(d, 2 * d + 1)
    )
    ok = (
        not sweep.mismatches
        and sweep.pairs >= 500
        and spanned
        and sweep.runtime < 60.0
    )
    report(
        1,
        ok,
        f"online oracle equivalence: {sweep.pairs} (instance, query) pairs over "
        f"{sweep.configs} configs, {len(sweep.mismatches)} mismatches, "
        f"sidedness spanned={spanned}, runtime {sweep.runtime:.1f}s (< 60s)",
    )


def test_criterion_2_sum_identity(sweep):
    ok = not sweep.sum_failures and sweep.sum_checks >= 500
    report(
        2,
        ok,
        f"sum identity: {sweep.sum_checks} count-mode queries, "
        f"{len(sweep.sum_failures)} violations",
    )


def test_criterion_3_space_accounting(sweep):
    extra_failures = []
    checks = sweep.space_checks
    for n in (33, 100, 700):
        for d in (2, 3):
            for s in (2, 4, 16, math.ceil(math.sqrt(n))):
                if s > n:
                    continue
                t = cf.build_dominance(cf.generate_points(n, d, 7, seed=n + d + s), d, s=s)
                checks += 1
                if t.stored_entries > cf.dominance_space_bound(n, s, d):
                    extra_failures.append((n, d, s))
    failures = sweep.space_failures + extra_failures
    report(
        3,
        not failures,
        f"space accounting: {checks} built structures within "
        f"n*((s-1)*(ceil_log_s(n)+1))^(d-1), boxes within box_space_bound, "
        f"{len(failures)} violations",
    )


def test_criterion_4_probe_bounds(sweep):
    ok = not sweep.probe_failures and sweep.probe_checks >= 500
    report(
        4,
        ok,
        f"probe bounds: {sweep.probe_checks} queries checked "
        f"(path, accumulator-touch, fan-out counters), "
        f"{len(sweep.probe_failures)} violations",
    )


def test_criterion_5_offline_dominance():
    rng = np.random.default_rng(55)
    batches = 0
    failures = []
    for trial in range(50):
        n = int(rng.choice([60, 120, 250, 400, 700, 1000, 1500, 2000]))
        m = int(rng.integers(1, 501))
        s = int(rng.choice([2, 4, 16]))
        ps = cf.generate_points(n, 2, int(rng.integers(1, 40)), seed=trial)
        queries = [(i, random_corner(rng, 2)) for i in range(m)]
        got = {}
        job = cf.OfflineJob(ps, queries, 0, s,
                            lambda qid, e: got.__setitem__(qid, canon(e)))
        summary = cf.answer_offline_dominance(job)
        online = cf.build_dominance(ps, 2, s=s)
        bad = [qid for qid, q in queries if got[qid] != canon(online.query(q))]
        if bad:
            failures.append(("answers", trial, bad[:3]))
        if summary.peak_live_entries > n:
            failures.append(("peak", trial, summary.peak_live_entries, n))
        structures, entries = cf.offline_build_bound(n, s)
        if summary.total_built > structures or summary.entries_built > entries:
            failures.append(("build bound", trial, summary.total_built, summary.entries_built))
        if summary.total_built != summary.total_destroyed:
            failures.append(("build/destroy", trial))
        if summary.emit_order_violations != 0:
            failures.append(("order", trial))
        if summary.emitted != m:
            failures.append(("emitted", trial))
        batches += 1
    report(
        5,
        batches >= 50 and not failures,
        f"offline dominance: {batches} batches (n<=2000, m<=500); per-query "
        f"online equality, peak<=n, offline build bound, built==destroyed, ordered emission; "
        f"{len(failures)} violations",
    )


def test_criterion_6_offline_3sided():
    rng = np.random.default_rng(66)
    failures = []
    batches = 0
    for trial in range(10):
        n = int(rng.choice([50, 150, 400, 800]))
        m = int(rng.integers(1, 201))
        mode = cf.MAX_SEMIGROUP if trial % 3 == 2 else cf.COUNT
        ps = cf.generate_points(n, 2, int(rng.integers(1, 30)), seed=trial, mode=mode)
        queries = [(i, random_query(rng, 2, sides=(2, 1))) for i in range(m)]
        got = {}
        s = int(rng.choice([2, 4]))
        summary = cf.answer_offline_3sided(
            ps, queries, s, lambda qid, e: got.__setitem__(qid, canon(e)),
        )
        for qid, q in queries:
            if got[qid] != canon(cf.brute_force(ps, q)):
                failures.append(("answers", trial, qid))
                break
        for qid, touches, k1, k2 in summary.merge_touches_per_query:
            if touches > k1 + k2:
                failures.append(("touches", trial, qid))
                break
        if summary.peak_live_entries > n:
            failures.append(("peak", trial, summary.peak_live_entries, n))
        structures, entries = cf.offline_build_bound(n, s, 2, 1)
        if summary.total_built > structures or summary.entries_built > entries:
            failures.append(("build bound", trial, summary.total_built, summary.entries_built))
        if summary.emitted != m:
            failures.append(("emitted", trial))
        batches += 1
    # subtraction-free box path: a non-invertible semigroup succeeds end to end
    ps = cf.generate_points(200, 2, 9, seed=99, mode=cf.MAX_SEMIGROUP)
    box = cf.build_box(ps, s=4, bounded_axes=(0, 1), mode=cf.MAX_SEMIGROUP)
    for i in range(40):
        q = random_query(rng, 2)
        if canon(box.query(q)) != canon(cf.brute_force(ps, q)):
            failures.append(("semigroup-box", i))
            break
    report(
        6,
        batches >= 10 and not failures,
        f"3-sided offline: {batches} batches oracle-equal, merge touches "
        f"<= k1+k2, peak<=n, offline build bound, semigroup (no-inverse) runs pass; "
        f"{len(failures)} violations",
    )


def test_criterion_7_accumulator_contract():
    failures = []
    drain_costs = []
    for phi in (16, 1600, 160000):
        acc = cf.ColorAccumulator(phi)
        for c in (0, 3, 7, 11, 2):
            acc.add(c, 2)
            acc.add(c, 3)
        before = acc.drain_ops
        out = acc.drain_and_reset()
        drain_costs.append(acc.drain_ops - before)
        if canon(out) != ((0, 5), (2, 5), (3, 5), (7, 5), (11, 5)):
            failures.append(("drain-content", phi))
        if not acc.is_fully_reset():
            failures.append(("reset", phi))
    if len(set(drain_costs)) != 1 or drain_costs[0] != 5:
        failures.append(("phi-dependence", drain_costs))
    # after real queries the accumulator is clean as well
    ps = cf.generate_points(300, 2, 25, seed=7)
    t = cf.build_dominance(ps, 2, s=4)
    sess = t.new_session()
    rng = np.random.default_rng(77)
    for _ in range(30):
        t.query(random_corner(rng, 2), sess)
        if not sess.accumulator.is_fully_reset():
            failures.append(("post-query reset",))
            break
    report(
        7,
        not failures,
        f"accumulator: drain cost == |touched| across phi {16, 1600, 160000}, "
        f"full reset after every drain; {len(failures)} violations",
    )


def test_criterion_8_weighted_semigroup():
    rng = np.random.default_rng(88)
    instances = 0
    failures = []
    for trial in range(100):
        n = int(rng.integers(1, 150))
        d = D_VALUES[trial % 3]
        ps = cf.generate_points(n, d, int(rng.integers(1, 20)), seed=trial,
                                mode=cf.MAX_SEMIGROUP)
        tree = cf.build_dominance(ps, d, s=int(rng.choice([2, 4])))
        q = random_corner(rng, d)
        if canon(tree.query(q)) != canon(cf.brute_force(ps, q)):
            failures.append(("dominance", trial))
        axes = tuple(a for a in range(d) if trial >> a & 1) or (0,)
        box = cf.build_box(ps, s=2, bounded_axes=axes)
        sides = tuple(2 if a in axes else 1 for a in range(d))
        qb = random_query(rng, d, sides=sides)
        if canon(box.query(qb)) != canon(cf.brute_force(ps, qb)):
            failures.append(("box", trial))
        instances += 1
    report(
        8,
        instances >= 100 and not failures,
        f"max-semigroup weights: {instances} instances, dominance and box "
        f"answers equal the max-per-color oracle; {len(failures)} violations",
    )
