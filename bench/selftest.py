"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/selftest.py -q

The file name keeps it out of the repository's default pytest collection;
these tests start many interpreters and take about half a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from overmex import qfactory, series  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(workload: str, trace: int, cwd: str = ROOT, seed: int = 1):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cold_caches():
    for f in tracer.lru_caches(qfactory):
        f.cache_clear()


def test_spec_matches_what_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    per_layer = tracer.metric_names() + ["trace.overhead_s"]
    assert [m["name"] for m in SPEC["per_layer"]] == per_layer
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"]), m


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted(workload, trace):
    out = last_json(bench(workload, trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    for name, metric in out["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def test_same_seed_same_inputs_and_m_from_each_third():
    wl = workloads.WORKLOADS["series_deep"]
    assert wl.inputs(5, "full") == wl.inputs(5, "full")
    picks = {tuple(wl.inputs(seed, "full")["m"]["overlined"]) for seed in range(20)}
    assert len(picks) > 1
    for m in picks:
        assert 1 <= m[0] <= 21 < m[1] <= 42 < m[2] <= 63
    assert not workloads.WORKLOADS["verify_default"].uses_seed


def test_corrupted_coefficient_is_reported(tmp_path, monkeypatch):
    cold_caches()
    original = qfactory.sigma_mex_gf

    def corrupted(variant, N):
        s = original(variant, N)
        if variant is qfactory.MexVariant.OVERLINED:
            c = list(s.coeffs)
            c[N // 2] += 1
            s = series.Series(tuple(c))
        return s

    monkeypatch.setattr(qfactory, "sigma_mex_gf", corrupted)
    record = child.run("series_deep", 1, "tiny", False, str(tmp_path / "spans"))
    failed = [r[0] for r in record["results"] if not r[1]]
    assert failed == ["sigma:overlined"]
    assert record["completed"]


def test_raising_workload_is_a_failed_result(tmp_path, monkeypatch):
    cold_caches()

    def broken(*args):
        raise OverflowError("boom")

    monkeypatch.setattr(qfactory, "sigma_mex_gf", broken)
    record = child.run("series_deep", 1, "tiny", True, str(tmp_path / "spans"))
    assert not record["completed"]
    assert any(r[0] == "workload" and "OverflowError" in r[2] for r in record["results"])


def test_report_comparison_ignores_timings_but_not_metrics():
    ref = {"check_name": "x", "status": "PASS", "range_checked": "n <= 5",
           "metrics": {"density": 0.5}}
    assert workloads.same_report(ref, dict(ref, elapsed_s=1.5))
    assert workloads.same_report(ref, dict(ref, metrics={"density": 0.5, "t_s": 2.0}))
    assert not workloads.same_report(ref, dict(ref, metrics={"density": 0.51}))
    assert not workloads.same_report(ref, dict(ref, status="FAIL"))
    results = workloads.judge({"report:y": dict(ref, status="FAIL")}, [], {})
    assert results == [("report:y", False, results[0][2])]


def test_a_warm_repetition_is_detected(tmp_path):
    cold_caches()
    first = child.run("parity_deep", 1, "tiny", False, str(tmp_path / "spans"))
    second = child.run("parity_deep", 1, "tiny", False, str(tmp_path / "spans"))
    assert ("cold_start", True, "") in [tuple(r) for r in first["results"]]
    assert ("cold_start", False) in [tuple(r[:2]) for r in second["results"]]


def test_repetitions_in_fresh_interpreters_are_cold():
    proc = bench("verify_default", 1)
    out = last_json(proc)
    assert out["failed"] == 0
    with open(os.path.join(BENCH, "out", "result-verify_default-seed1-trace1.json")) as fh:
        report = json.load(fh)
    assert len(report["samples"]["verdict_s"]) + len(report["samples"]["traced_verdict_s"]) >= 2


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("series_deep", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
