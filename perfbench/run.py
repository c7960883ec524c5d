"""colorfreq benchmark: one workload per invocation, one JSON line of results.

    python3 perfbench/run.py --workload dom2-fewcolors --seed 1 --seconds 20 --trace 0

Drives the public library API from one process and one thread as a closed
loop with one caller: the next query starts when the previous one returned.
Every query passes an explicit session from ``new_session()``, as concurrent
readers must.  Inputs come from ``generate_points`` / ``generate_queries``
seeded by ``--seed``; the library only ever sees the PointSet and BoxQuery
objects.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
patches the library's module boundaries (see spans.py), reports the
per-layer metrics and writes the spans to perfbench/out/ as JSONL.  Both
modes check answers against ``brute_force`` and the counter contract
outside the timed region; any failure makes the run incorrect and the exit
code 1.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_colorfreq():
    """Import the package from this checkout's sources, never an installed copy."""
    pkg = ROOT / "src" / "colorfreq"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: colorfreq sources not found at {pkg}")
    sys.path.insert(0, str(pkg.parent))
    import colorfreq

    if Path(colorfreq.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported colorfreq from {colorfreq.__file__}, not {pkg}")
    return colorfreq


cf = _import_colorfreq()
from spans import SpanRecorder, trace_colorfreq  # noqa: E402

QUERY_SEED_OFFSET = 1_000_003  # query pool seed = workload seed + offset
ORACLE_SAMPLE = 200  # the first queries (i.i.d. random) are checked against brute_force
WARMUP_QUERIES = 200  # untimed; they also estimate how many queries fit the window
# An online run is setup_reps rounds, each one build and then `passes`
# passes over the same queries; a query's latency is the best of its
# timings.  Other tenants of a shared machine only ever slow a query down,
# so the best timing is the one that measures the program.


@dataclass(frozen=True)
class Workload:
    """Parameters of one workload; why each exists is recorded in BENCHMARK.json."""

    name: str
    structure: str  # "dominance", "box" or "offline-3sided"
    n: int
    phi: int
    s: int
    queries: int  # query pool of online workloads, batch size m offline
    setup_reps: int  # set-ups timed per run; setup_s is their median
    passes: int = 1  # query passes after each online build
    semigroup: bool = False  # MAX_SEMIGROUP weights instead of counts
    sides: tuple = (1, 1)  # per axis: 1 = upper bound only, 2 = interval

    @property
    def bounded_axes(self) -> tuple:
        return tuple(i for i, v in enumerate(self.sides) if v == 2)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dom2-fewcolors", "dominance", n=50_000, phi=16, s=16,
                 queries=40_000, setup_reps=3, passes=10),
        # builds take about 6 s and freeing one over 1 s: two rounds only
        Workload("box2x2-semigroup", "box", n=2_000, phi=64, s=8,
                 queries=40_000, setup_reps=2, passes=15, semigroup=True, sides=(2, 2)),
        # the empty batch that times set-up takes about 35 ms; setup_reps of
        # them run before every batch, so they sample the whole run
        Workload("offline-3sided", "offline-3sided", n=20_000, phi=64, s=16,
                 queries=5_000, setup_reps=15, sides=(2, 1)),
    )
}


def make_inputs(w: Workload, seed: int):
    """(points, queries) for one seed."""
    mode = cf.MAX_SEMIGROUP if w.semigroup else cf.COUNT
    ps = cf.generate_points(w.n, 2, w.phi, seed, mode=mode)
    queries = cf.generate_queries(w.queries, 2, seed + QUERY_SEED_OFFSET, sides=w.sides)
    return ps, queries


def oracle_answers(ps, queries) -> dict:
    return {i: cf.canonical_freq(cf.brute_force(ps, q))
            for i, q in enumerate(queries[:ORACLE_SAMPLE])}


# -- online workloads ----------------------------------------------------------------


def build(w: Workload, ps):
    if w.structure == "box":
        return cf.build_box(ps, s=w.s, bounded_axes=w.bounded_axes)
    return cf.build_dominance(ps, d=2, s=w.s)


@dataclass
class Rounds:
    """Timings of an online run: builds, and passes over the same queries."""

    size: int  # distinct queries, answered once per pass
    build_s: list = field(default_factory=list)
    latencies_ns: list = field(default_factory=list)  # one row per pass
    answers: dict = field(default_factory=dict)  # first-pass answers of the oracle sample
    failed: int = 0
    k_total: int = 0
    substructure_queries: int = 0  # session counters, summed (traced only)
    fanout: int = 0
    probes: int = 0

    @property
    def attempted(self) -> int:
        return self.size * len(self.latencies_ns)

    @property
    def best_ns(self) -> np.ndarray:
        """Per query, the best of its latencies over the passes."""
        return np.min(np.asarray(self.latencies_ns, dtype=np.int64), axis=0)

    @property
    def qps(self) -> float:
        """Queries per second of one caller at the best latencies."""
        return self.size / (float(self.best_ns.sum()) / 1e9)


def online_rounds(w: Workload, ps, queries, seconds: float, rounds: int, passes: int,
                  rec=None, size=None):
    """(last structure, Rounds): ``rounds`` times build, then ``passes`` passes.

    Each round builds afresh, so a query's best latency is taken over
    several memory layouts as well as several moments.  Without ``size``,
    warm-up queries after the first build pick how many queries make all
    passes last about ``seconds``.
    """
    clock = time.perf_counter_ns
    tree, res = None, None
    for _ in range(rounds):
        tree = None  # free the previous structure before building the next
        gc.collect()
        frame = rec.begin("bench.build") if rec else None
        t0 = clock()
        tree = build(w, ps)
        build_ns = clock() - t0
        if rec:
            rec.end(frame)
        session = tree.new_session()
        if res is None:
            if size is None:
                warm = queries[:WARMUP_QUERIES]
                t0 = clock()
                for q in warm:
                    tree.query(q, session)
                per_query = (clock() - t0) / len(warm)
                size = int(seconds * 1e9 / (rounds * passes * per_query))
                size = max(min(size, len(queries)), min(ORACLE_SAMPLE, len(queries)))
            res = Rounds(size)
        res.build_s.append(build_ns / 1e9)
        for _ in range(passes):
            query_pass(tree, session, queries, res, rec)
    return tree, res


def query_pass(tree, session, queries, res: Rounds, rec=None) -> None:
    """Answer the first ``res.size`` queries once each, one at a time."""
    clock = time.perf_counter_ns
    first = not res.latencies_ns
    lat = []
    for idx in range(res.size):
        frame = rec.begin("bench.query") if rec else None
        t0 = clock()
        try:
            out = tree.query(queries[idx], session)
        except Exception:  # a failed query is counted, the loop goes on
            if not res.failed:
                traceback.print_exc()
            res.failed += 1
            out = None
        lat.append(clock() - t0)
        if rec:
            rec.end(frame)
            res.substructure_queries += session.substructure_queries
            res.fanout += session.fanout
            res.probes += session.probes
        if out is not None:
            res.k_total += len(out)
        if first and idx < ORACLE_SAMPLE:
            res.answers[idx] = out
    res.latencies_ns.append(lat)


def check_online(w: Workload, tree, ps, queries, expected, answers) -> tuple[int, dict]:
    """(wrong answers, counter-contract violations) over the oracle sample.

    Each sampled query is answered again with a fresh session so its
    counters describe that query alone.
    """
    n, d, t = ps.n, ps.d, len(w.bounded_axes)
    path_bound = cf.dominance_path_bound(n, w.s) ** (d - 1)
    space_bound = cf.dominance_space_bound(n, w.s, d)
    if w.structure == "box":
        space_bound *= (cf.ceil_log(2, max(n, 1)) + 1) ** t
    violations = {"space": int(tree.stored_entries > space_bound),
                  "path": 0, "touch": 0, "fanout": 0}
    session = tree.new_session()
    acc = session.accumulator
    wrong = 0
    for idx, want in expected.items():
        before = acc.touch_ops
        try:
            got = tree.query(queries[idx], session)
        except Exception:
            traceback.print_exc()
            wrong += 1
            continue
        seen = answers.get(idx)
        if seen is None or cf.canonical_freq(seen) != want or cf.canonical_freq(got) != want:
            wrong += 1
        if w.structure == "box":
            violations["fanout"] += session.fanout > 2 ** t
        else:
            violations["path"] += session.substructure_queries > path_bound
            violations["touch"] += acc.touch_ops - before > len(got) * path_bound
    return wrong, violations


# -- offline workload ----------------------------------------------------------------


@dataclass
class Batch:
    wall_ns: int
    emit_ns: list  # time from batch start to each answer reaching the sink
    seen: dict  # query id -> times emitted
    answers: dict  # query id -> entries, for the oracle sample
    k_total: int  # colors reported over all answers
    summary: object


def offline_batches(w: Workload, ps, queries, seconds: float, rec=None, setup=None):
    """Whole batches of all queries, started until ``seconds`` have passed.

    With a ``setup`` list, ``w.setup_reps`` empty batches (x-sort and x-tree
    skeleton only) are timed into it before each batch.
    """
    jobs = list(enumerate(queries))
    clock = time.perf_counter_ns
    batches: list[Batch] = []
    deadline = clock() + int(seconds * 1e9)
    while not batches or clock() < deadline:
        for _ in range(w.setup_reps if setup is not None else 0):
            t0 = clock()
            cf.answer_offline_3sided(ps, [], w.s)
            setup.append((clock() - t0) / 1e9)
        stamps, sizes, seen, answers = [], [], {}, {}

        def sink(qid, entries):
            frame = rec.begin("bench.sink") if rec else None
            stamps.append(clock())
            sizes.append(len(entries))
            seen[qid] = seen.get(qid, 0) + 1
            if qid < ORACLE_SAMPLE:
                answers[qid] = entries
            if rec:
                rec.end(frame)

        gc.collect()
        frame = rec.begin("bench.batch") if rec else None
        t0 = clock()
        summary = cf.answer_offline_3sided(ps, jobs, w.s, sink)
        t1 = clock()
        if rec:
            rec.end(frame)
        emit_ns = [t - t0 for t in stamps]
        batches.append(Batch(t1 - t0, emit_ns, seen, answers, sum(sizes), summary))
    return batches


def answer_waits_ns(batch: Batch) -> np.ndarray:
    """The wait for each answer: the time since the previous answer reached
    the sink (since the batch started, for the first)."""
    return np.diff(batch.emit_ns, prepend=0)


def best_qps(batches: list[Batch]) -> float:
    """Queries per second of the fastest batch."""
    return len(batches[0].seen) / (min(b.wall_ns for b in batches) / 1e9)


def check_offline(ps, queries, expected, batches) -> tuple[int, dict]:
    violations = {"emit_once": 0, "emit_order": 0, "peak_live": 0, "merge_touch": 0}
    wrong = 0
    for b in batches:
        violations["emit_once"] += sum(abs(b.seen.get(qid, 0) - 1) for qid in range(len(queries)))
        violations["emit_once"] += sum(1 for qid in b.seen if not 0 <= qid < len(queries))
        violations["emit_order"] += b.summary.emit_order_violations
        violations["peak_live"] += b.summary.peak_live_entries > ps.n
        violations["merge_touch"] += sum(
            touches > k1 + k2 for _, touches, k1, k2 in b.summary.merge_touches_per_query
        )
        for qid, want in expected.items():
            got = b.answers.get(qid)
            wrong += got is None or cf.canonical_freq(got) != want
    return wrong, violations


# -- metrics -----------------------------------------------------------------------


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def percentile_us(values_ns, p) -> float:
    return float(np.percentile(np.asarray(values_ns, dtype=np.float64), p)) / 1e3


def end_to_end(w: Workload, ps, queries, seconds: float):
    """(metrics {name: (value, samples)}, attempted, failed, checked, wrong, violations)."""
    expected = oracle_answers(ps, queries)
    if w.structure == "offline-3sided":
        setup = []
        batches = offline_batches(w, ps, queries, seconds, setup=setup)
        wrong, violations = check_offline(ps, queries, expected, batches)
        waits = answer_waits_ns(min(batches, key=lambda b: b.wall_ns))
        attempted = sum(len(b.seen) for b in batches)
        failed, checked = 0, len(expected) * len(batches)
        metrics = {
            "query_p50_us": (percentile_us(waits, 50), len(waits)),
            "query_p99_us": (percentile_us(waits, 99), len(waits)),
            "query_qps": (best_qps(batches), len(batches)),
            "stored_entries": (batches[0].summary.peak_live_entries, 1),
        }
    else:
        tree, win = online_rounds(w, ps, queries, seconds, w.setup_reps, w.passes)
        setup = win.build_s
        wrong, violations = check_online(w, tree, ps, queries, expected, win.answers)
        attempted, failed, checked = win.attempted, win.failed, len(expected)
        metrics = {
            "query_p50_us": (percentile_us(win.best_ns, 50), win.size),
            "query_p99_us": (percentile_us(win.best_ns, 99), win.size),
            "query_qps": (win.qps, win.size),
            "stored_entries": (tree.stored_entries, 1),
        }
    metrics["setup_s"] = (statistics.median(setup), len(setup))
    metrics["peak_rss_mib"] = (peak_rss_mib(), 1)
    metrics["answer_accuracy"] = (1.0 - wrong / checked, checked)
    return metrics, attempted, failed, checked, wrong, violations


def per_layer(w: Workload, ps, queries, seconds: float, spans_path: Path):
    """Untraced then traced halves of the window; per-layer metrics from the spans."""
    half = seconds / 2
    offline = w.structure == "offline-3sided"
    if offline:
        untraced_qps = best_qps(offline_batches(w, ps, queries, half))
    else:
        tree, untraced = online_rounds(w, ps, queries, half, 1, 1)
        untraced_qps = untraced.qps
        tree = None

    rec = SpanRecorder()
    trace_colorfreq(rec, cf)
    try:
        expected = oracle_answers(ps, queries)  # first, so its spans are kept
        if offline:
            batches = offline_batches(w, ps, queries, half, rec)
        else:
            tree, win = online_rounds(w, ps, queries, half, 1, 1, rec, size=untraced.size)
    finally:
        rec.restore()

    if offline:
        wrong, violations = check_offline(ps, queries, expected, batches)
        builds = len(batches)  # the structures are built inside each batch
        nq = sum(len(b.seen) for b in batches)
        k_total = sum(b.k_total for b in batches)
        traced_qps = best_qps(batches)
        attempted, failed, checked = nq, 0, len(expected) * len(batches)
        sub = fanout = layer_probes = 0
        summary = batches[0].summary
        offline_counts = (summary.total_built, summary.entries_built, summary.merge_entry_touches)
    else:
        wrong, violations = check_online(w, tree, ps, queries, expected, win.answers)
        builds, nq, k_total, traced_qps = 1, win.attempted, win.k_total, win.qps
        attempted, failed, checked = win.attempted, win.failed, len(expected)
        sub, fanout = win.substructure_queries, win.fanout
        layer_probes = win.probes - rec.counts["freq1d.probes"]
        offline_counts = (0, 0, 0)

    def self_s(name):
        return rec.self_ns[name] / 1e9

    def share(name, *phases):
        """Self time of ``name`` as a share of the wall time of ``phases``."""
        wall = sum(rec.total_ns[p] for p in phases)
        return rec.self_ns[name] / wall if wall else 0.0

    counts = rec.counts
    probes = counts["freq1d.probes"]
    scan = rec.durations_ns("oracle.scan")
    traced_wall = sum(rec.total_ns[n] for n in ("bench.build", "bench.query", "bench.batch"))
    remainder = sum(ns for n, ns in rec.self_ns.items() if n.startswith("bench."))
    us_per_q = 1e6 / nq
    metrics = {
        "freq1d.build_s": (self_s("freq1d.build") / builds, builds),
        "freq1d.builds": (rec.calls["freq1d.build"] / builds, builds),
        "freq1d.entries_built": (counts["freq1d.entries"] / builds, builds),
        "freq1d.report_us": (self_s("freq1d.report") * us_per_q, nq),
        "freq1d.reports_per_query": (rec.calls["freq1d.report"] / nq, nq),
        "freq1d.probes_per_query": (probes / nq, nq),
        "freq1d.hits_per_probe": (counts["freq1d.hits"] / probes if probes else 0.0, probes),
        "dominance.build_self_s": (self_s("dominance.build") / builds, builds),
        "dominance.query_self_share": (share("dominance.query", "bench.query", "bench.batch"), nq),
        "dominance.substructure_queries_per_query": (sub / nq, nq),
        "dominance.acc_merge_us": (self_s("dominance.acc_merge") * us_per_q, nq),
        "dominance.acc_drain_us": (self_s("dominance.acc_drain") * us_per_q, nq),
        "dominance.touch_ops_per_query": (counts["acc.touches"] / nq, nq),
        "dominance.touches_per_k": (counts["acc.touches"] / max(k_total, 1), k_total),
        "boxes.build_self_share": (share("boxes.build", "bench.build"), builds),
        "boxes.query_self_share": (share("boxes.query", "bench.query"), nq),
        "boxes.fanout_per_query": (fanout / nq, nq),
        "boxes.probes_per_query": (layer_probes / nq, nq),
        "offline.sweep_self_share": (share("offline.batch", "offline.batch"), builds),
        "offline.build_share": (
            share("freq1d.build", "offline.batch") + share("dominance.build", "offline.batch"),
            builds,
        ),
        "offline.total_built": (offline_counts[0], 1),
        "offline.entries_built": (offline_counts[1], 1),
        "offline.merge_entry_touches": (offline_counts[2], 1),
        "oracle.scan_p50_us": (percentile_us(scan, 50), len(scan)),
        "trace_overhead": (traced_qps / untraced_qps, nq),
        "trace.remainder_share": (remainder / traced_wall, rec.calls["bench.build"] + nq),
    }

    print("layer self time over the traced build and query phases:")
    layers = sorted(n for n in rec.self_ns if not n.startswith(("bench.", "oracle.")))
    for name in layers:
        print(f"  {name:24s} {rec.self_ns[name] / 1e9:10.4f} s  calls={rec.calls[name]}")
    print(f"  {'sum of layers':24s} {sum(rec.self_ns[n] for n in layers) / 1e9:10.4f} s")
    print(f"  {'remainder (benchmark)':24s} {remainder / 1e9:10.4f} s")
    print(f"  {'traced wall':24s} {traced_wall / 1e9:10.4f} s")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    rec.write_jsonl(spans_path)
    print(f"spans: {len(rec.spans)} written to {spans_path.relative_to(ROOT)}, "
          f"{rec.dropped} dropped")
    return metrics, attempted, failed, checked, wrong, violations


# -- driver ------------------------------------------------------------------------


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "colorfreq": cf.__version__, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run(w: Workload, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """Run one workload, print the report lines and return the result object."""
    print(f"workload {w}")
    print("env " + json.dumps(environment()))
    ps, queries = make_inputs(w, seed)
    if trace:
        spans_path = HERE / "out" / f"{w.name}.spans.jsonl"
        metrics, attempted, failed, checked, wrong, violations = per_layer(
            w, ps, queries, seconds, spans_path)
        declared = spec["per_layer"]
    else:
        metrics, attempted, failed, checked, wrong, violations = end_to_end(
            w, ps, queries, seconds)
        declared = spec["end_to_end"]
    names = [m["name"] for m in declared]
    if set(names) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {names}")
    out = {}
    for m in declared:
        value, samples = metrics[m["name"]]
        print(f"metric {m['name']} = {value} {m['unit']} ({m['better']} is better, "
              f"samples={samples})")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    bad = sum(violations.values())
    print(f"checked {checked} answers against brute_force: {wrong} wrong, "
          f"error_rate={wrong / checked}")
    print("counter-contract violations " + json.dumps(violations))
    failed += wrong + bad
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), load_spec())
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
