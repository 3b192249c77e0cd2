"""Self-tests of the benchmark.

    python3 -m pytest -q bench

They take about two minutes: every workload runs one operation, once
untraced and once traced.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import ess  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from plastinfer import NumericalError, effective_sample_size, posterior  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_declared_metrics_match_the_contract():
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == bench_run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == bench_run.PER_LAYER_UNITS
    assert {w["name"] for w in CONTRACT["workloads"]} <= set(workloads.WORKLOADS)
    assert list(bench_run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", ["pp-coverage", "lenh-double"])
def test_ess_copy_agrees_with_the_library(name, tmp_path):
    factory, _ = workloads.WORKLOADS[name]
    _, chain, _ = factory(7, tmp_path).operation(0)
    retained, _ = chain.retained()
    for column in retained.T:
        assert ess.effective_sample_size(column) == pytest.approx(
            effective_sample_size(column), rel=1e-12
        )


def test_ess_copy_edge_cases():
    assert ess.effective_sample_size([1.0, 2.0, 3.0]) == 3.0
    assert ess.effective_sample_size(np.full(50, 2.5)) == 50.0
    white = np.random.default_rng(0).standard_normal(4000)
    assert ess.effective_sample_size(white) == pytest.approx(effective_sample_size(white), rel=1e-12)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_short_run_emits_every_metric(name):
    for trace, declared in (("0", "end_to_end"), ("1", "per_layer")):
        result = _result(_run("--workload", name, "--seed", "5", "--seconds", "0", "--trace", trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in CONTRACT[declared]}
        assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


def test_traced_counts_repeat_for_a_seed():
    def counts():
        result = _result(_run("--workload", "lenh-double", "--seed", "9", "--seconds", "0", "--trace", "1"))
        return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}

    first = counts()
    assert first["models.stress_lenh.calls"] > 0
    assert counts() == first


def test_injected_failure_counts_one_failed_operation(monkeypatch, tmp_path):
    original = posterior.LogPosterior.__call__
    calls = 0

    def failing(self, values):
        nonlocal calls
        calls += 1
        if calls == 250:
            raise NumericalError("injected")
        return original(self, values)

    monkeypatch.setattr(posterior.LogPosterior, "__call__", failing)
    factory, _ = workloads.WORKLOADS["lenh-double"]
    records = bench_run.measure(factory(3, tmp_path), workloads.FAILURES, 0.0, n_ops=3)
    assert [r.index for r in records] == [0, 1, 2]
    assert [r.error for r in records] == [None, "NumericalError: injected", None]
    assert not any(r.check_failed for r in records)
    assert bench_run.end_to_end(records)["fail_ratio"] == pytest.approx(1 / 3)


def test_warmup_operation_is_checked_but_not_timed(tmp_path):
    factory, _ = workloads.WORKLOADS["lenh-double"]
    records = bench_run.measure(factory(3, tmp_path), workloads.FAILURES, 0.0, warmup=1)
    assert [(r.index, r.timed) for r in records] == [(0, False), (1, True)]
    assert all(r.outcome is not None for r in records)
    summary = bench_run.end_to_end(records)
    assert summary["op_s_p50"] == records[1].seconds
    assert summary["ops_per_s"] == 1 / records[1].seconds


def test_checkout_without_source_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "lenh-double", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
