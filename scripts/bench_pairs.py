"""Benchmark this checkout against a parent commit in ten alternating pairs.

    python3 scripts/bench_pairs.py --parent REV --out BENCH_N.json \
        [--claim WORKLOAD:METRIC:FRACTION] [--workdir DIR]

Pair i (i = 0..9) runs ``perfbench/run.py --seed <101 + i> --trace 0`` for
BENCHMARK.json's ``run_seconds`` on every workload, once on a ``git archive``
of REV and once on a copy of this checkout's ``src/``, ``perfbench/`` and
``BENCHMARK.json``, each in its own directory; the side that runs first
alternates (the parent in even pairs).  The JSON, rewritten after every
pair, holds per workload and end-to-end metric each side's runs, median and
quartiles, the pairs the change won and the relative change of the medians.
A metric is marked ``unresolved`` when the parent's interquartile range is
more than the metric's bound as a share of the parent's median: its own
runs spread too widely to call it unchanged.  A ``--claim`` is met when
all ten pairs ran, the change won at least nine, its median is better by
more than the parent's interquartile range, and by at least FRACTION of the
parent's median.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
FIRST_SEED = 101


def _checkouts(parent: str, workdir: Path) -> dict[str, Path]:
    """The parent commit and this checkout, as two directories."""
    sides = {"parent": workdir / "parent", "change": workdir / "change"}
    for path in sides.values():
        if path.exists():
            shutil.rmtree(path)
    tar = subprocess.run(["git", "archive", "--format=tar", parent], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(sides["parent"], filter="data")
    sides["change"].mkdir(parents=True)
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, sides["change"] / name,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", sides["change"])
    return sides


def _run(side: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=side, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {side} exited with "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 \
        else (runs[0],) * 3
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def _report(spec: dict, results: dict, parent: str, claim, made_by: str) -> dict:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = {}
    for name, pairs in results.items():
        metrics = {}
        for metric, m in bounds.items():
            sign = 1 if m["better"] == "lower" else -1
            par = [p["parent"]["metrics"][metric]["value"] for p in pairs]
            chg = [p["change"]["metrics"][metric]["value"] for p in pairs]
            wins = sum(sign * (c - p) < 0 for p, c in zip(par, chg))
            entry = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                     "parent": _summary(par), "change": _summary(chg),
                     "change_better": f"{wins}/{len(pairs)}"}
            base = entry["parent"]["median"]
            entry["rel_change"] = (entry["change"]["median"] - base) / base if base else 0.0
            iqr = entry["parent"]["q3"] - entry["parent"]["q1"]
            entry["parent_iqr_share"] = iqr / abs(base) if base else 0.0
            entry["unresolved"] = entry["parent_iqr_share"] > m["bound"]
            metrics[metric] = entry
        workloads[name] = {
            "pairs": len(pairs),
            "seeds": [p["seed"] for p in pairs],
            "all_correct": all(p[s]["correct"] for p in pairs for s in ("parent", "change")),
            "failed_ops": {s: sum(p[s]["failed"] for p in pairs) for s in ("parent", "change")},
            "metrics": metrics,
        }
    out = {
        "command": "python3 perfbench/run.py --workload <w> --seed <k> "
                   f"--seconds {spec['run_seconds']:g} --trace 0",
        "made_by": made_by,
        "method": " ".join(__doc__.split("\n\n")[2].split()),
        "parent": parent,
        "machine": f"{len(os.sched_getaffinity(0))}-vCPU {platform.system()}, "
                   f"Python {platform.python_version()}, numpy {np.__version__}",
    }
    if claim is not None:
        name, metric, fraction = claim
        entry = workloads[name]["metrics"][metric]
        sign = 1 if entry["better"] == "lower" else -1
        wins, pairs = map(int, entry["change_better"].split("/"))
        iqr = entry["parent"]["q3"] - entry["parent"]["q1"]
        diff = abs(entry["change"]["median"] - entry["parent"]["median"])
        out["claim"] = {
            "workload": name, "metric": metric,
            "target": f"median better by at least {fraction:.0%}",
            "parent_median": entry["parent"]["median"],
            "change_median": entry["change"]["median"], "parent_iqr": iqr,
            "rel_change": entry["rel_change"], "change_better": entry["change_better"],
            "met": pairs == PAIRS and wins * 10 >= 9 * PAIRS and diff > iqr
                   and -sign * entry["rel_change"] >= fraction,
        }
    out["workloads"] = workloads
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--claim", help="WORKLOAD:METRIC:FRACTION, "
                    "e.g. dom2-fewcolors:peak_rss_mib:0.15")
    ap.add_argument("--workdir", type=Path,
                    help="where the two checkouts go (default: a temp dir)")
    args = ap.parse_args(argv)
    claim = None
    if args.claim:
        name, metric, fraction = args.claim.split(":")
        if name not in names or metric not in {m["name"] for m in spec["end_to_end"]}:
            ap.error(f"--claim names no workload and end-to-end metric: {args.claim}")
        claim = (name, metric, float(fraction))
    parent = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    # the command as run, with the parent resolved, so that it can be rerun
    # once this change is committed
    made_by = f"python3 scripts/bench_pairs.py --parent {parent} --out {args.out.name}"
    if args.claim:
        made_by += f" --claim {args.claim}"
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    sides = _checkouts(parent, workdir)
    results: dict[str, list] = {w: [] for w in names}
    for i in range(PAIRS):
        seed = FIRST_SEED + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in names:
            pair = {"seed": seed}
            for side in order:
                pair[side] = _run(sides[side], w, seed, spec["run_seconds"])
            results[w].append(pair)
            print(f"pair {i} {w}: " + ", ".join(
                f"{s} {pair[s]['metrics']['peak_rss_mib']['value']:.1f} MiB "
                f"setup {pair[s]['metrics']['setup_s']['value']:.3f} s" for s in order),
                flush=True)
        report = _report(spec, results, parent, claim, made_by)
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
