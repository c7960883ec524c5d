"""Smoke test of the benchmark: every workload at tiny size, traced and untraced.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import dataclasses

import pytest

import run


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


def tiny(name):
    w = run.WORKLOADS[name]
    return dataclasses.replace(w, n=300, phi=min(w.phi, 75), queries=60, setup_reps=2)


def test_benchmark_json_names_every_workload(spec):
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_run_reports_every_metric(name, trace, spec):
    result = run.run(tiny(name), seed=3, seconds=0.2, trace=trace, spec=spec)
    declared = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    if not trace:
        assert result["metrics"]["answer_accuracy"]["value"] == 1.0  # error_rate == 0


@pytest.mark.parametrize("name", ["dom2-fewcolors", "offline-3sided"])
def test_wrong_answers_fail_the_run(name, spec, monkeypatch):
    def drop_first(fn):
        return lambda *a, **k: fn(*a, **k)[1:]

    monkeypatch.setattr(run.cf, "brute_force", drop_first(run.cf.brute_force))
    result = run.run(tiny(name), seed=3, seconds=0.2, trace=False, spec=spec)
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["answer_accuracy"]["value"] < 1.0
