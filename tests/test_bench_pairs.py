"""scripts/bench_pairs.py: the report it writes from ten pairs of runs."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

SPEC = {
    "run_seconds": 1,
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "query_qps", "unit": "1/s", "better": "higher", "bound": 0.25},
    ],
}


def pairs(parent, change):
    """Pairs of runs with the given per-metric values, one list per side."""
    out = []
    for i in range(len(parent["setup_s"])):
        pair = {"seed": 101 + i}
        for side, values in (("parent", parent), ("change", change)):
            pair[side] = {"metrics": {m: {"value": v[i]} for m, v in values.items()},
                          "correct": True, "failed": 0}
        out.append(pair)
    return out


def test_a_metric_whose_parent_spreads_past_its_bound_is_unresolved():
    steady = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    wide = [100, 160, 70, 100, 150, 60, 100, 140, 80, 100]  # IQR 0.51 of the median
    report = bench_pairs._report(SPEC, {"w": pairs({"setup_s": steady, "query_qps": wide},
                                                   {"setup_s": steady, "query_qps": wide})},
                                 "parent", ("w", "setup_s", 0.15), "made by")
    metrics = report["workloads"]["w"]["metrics"]
    assert metrics["setup_s"]["unresolved"] is False
    assert metrics["setup_s"]["parent_iqr_share"] < 0.25
    assert metrics["query_qps"]["unresolved"] is True
    assert metrics["query_qps"]["parent_iqr_share"] > 0.25
    assert report["claim"]["met"] is False  # no gain at all
