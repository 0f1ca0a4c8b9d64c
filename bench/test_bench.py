"""Smoke test of the benchmark: ``PYTHONPATH=src:. pytest bench -q``.

Every workload runs at ``--quick`` size, plain (with the reference oracles)
and traced; each run must pass all its output checks and print exactly the
metrics BENCHMARK.json names, with their units.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench.compare import compare

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench.run", "--quick", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_passes_checks_and_prints_every_metric(workload: str, trace: int) -> None:
    extra = ["--trace", "1"] if trace else ["--verify"]
    completed = _run(ROOT, "--workload", workload, *extra)
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    summary = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["failed"] == 0 and summary["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    printed = {name: metric["unit"] for name, metric in summary["metrics"].items()}
    assert printed == wanted
    if not trace:
        assert all(metric["value"] > 0 for metric in summary["metrics"].values())


def test_without_program_source_exits_nonzero_without_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run(tmp_path, "--workload", "generate")
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_compare_flags_spread_and_regression_against_bounds() -> None:
    metrics = [{"name": "p50_ms", "better": "lower", "bound": 0.1}]
    base = {("screen", "p50_ms"): [2.0, 2.01, 2.02, 1.99, 2.0]}
    same, agree = compare(base, {("screen", "p50_ms"): [2.01, 2.0, 2.02, 1.98, 2.0]}, metrics)
    assert agree and not same[0]["problems"]
    __, agree = compare(base, {("screen", "p50_ms"): [2.4, 2.41, 2.39, 2.4, 2.42]}, metrics)
    assert not agree
    __, agree = compare({("screen", "p50_ms"): [1.0, 2.0, 3.0, 4.0, 5.0]}, None, metrics)
    assert not agree
