"""The perf bench harness and its budget gates."""

import functools
import json

from repro.distance.engine import DistanceEngine
from repro.eval import perf
from repro.eval.perf import PerfBudget, PerfReport, run_perf_bench


def make_report(**overrides) -> PerfReport:
    """A healthy synthetic report; overrides inject specific failures."""
    values = dict(
        n_apps=40,
        m=24,
        n_pairs=276,
        workers=2,
        cpu_count=8,
        seed=7,
        matrix_naive_s=2.0,
        matrix_serial_s=0.4,
        matrix_parallel_s=0.15,
        linkage_s=0.05,
        screen_s=0.1,
        screened_packets=500,
        n_signatures=6,
        identical=True,
        engine_stats={"pair_hit_rate": 0.8},
    )
    values.update(overrides)
    return PerfReport(**values)


class TestPerfBudget:
    def test_healthy_report_passes(self):
        assert PerfBudget().violations(make_report()) == []

    def test_divergence_always_fails(self):
        budget = PerfBudget(
            min_parallel_speedup=None, min_engine_speedup=None, min_pair_hit_rate=None
        )
        violations = budget.violations(make_report(identical=False))
        assert any("diverges" in v for v in violations)

    def test_parallel_floor_enforced_when_cpus_allow(self):
        report = make_report(matrix_parallel_s=0.35, cpu_count=8)
        assert any("parallel speedup" in v for v in PerfBudget().violations(report))

    def test_parallel_floor_waived_without_cpus(self):
        report = make_report(matrix_parallel_s=0.5, cpu_count=1)
        assert not any("parallel speedup" in v for v in PerfBudget().violations(report))

    def test_engine_floor(self):
        report = make_report(matrix_naive_s=0.41)
        assert any("engine speedup" in v for v in PerfBudget().violations(report))

    def test_hit_rate_floor(self):
        report = make_report(engine_stats={"pair_hit_rate": 0.1})
        assert any("hit rate" in v for v in PerfBudget().violations(report))

    def test_wall_clock_ceiling(self):
        budget = PerfBudget(max_matrix_seconds=0.1)
        assert any("budget" in v for v in budget.violations(make_report()))


class TestPerfReport:
    def test_speedups(self):
        report = make_report()
        assert report.parallel_speedup == 0.4 / 0.15
        assert report.engine_speedup == 5.0
        assert report.ok

    def test_json_round_trip(self, tmp_path):
        report = make_report()
        path = report.save(tmp_path / "BENCH_perf.json")
        data = json.loads(path.read_text())
        assert data["bench"] == "perf"
        assert data["identical"] is True
        assert data["speedup"]["engine_vs_naive"] == 5.0
        assert data["cpu_count"] == 8
        assert data["ok"] is True

    def test_render_mentions_gates(self):
        text = make_report().render()
        assert "matrices identical" in text
        assert "budget: ok" in text
        failing = make_report(identical=False)
        failing.violations = PerfBudget().violations(failing)
        assert "BUDGET VIOLATIONS" in failing.render()


class TestRunPerfBench:
    def test_smoke_run_is_correct_and_complete(self, tmp_path, monkeypatch):
        budget = PerfBudget(
            min_parallel_speedup=None, min_engine_speedup=None, min_pair_hit_rate=None
        )
        # Small chunks, so the 120-pair parallel arm reaches the pool.
        monkeypatch.setattr(
            perf, "DistanceEngine", functools.partial(DistanceEngine, chunk_pairs=16)
        )
        report = run_perf_bench(
            n_apps=30, sample=16, workers=2, seed=3, screen_packets=300, budget=budget
        )
        assert report.parallel_stats["workers_used"] == 2
        assert report.identical
        assert report.m == 16
        assert report.n_pairs == 120
        assert report.n_signatures > 0
        assert report.violations == []
        data = report.to_dict()
        assert data["cache"]["mode"] == "packet"
        assert data["timings_s"]["matrix_parallel"] > 0
