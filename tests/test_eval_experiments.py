"""Fig 4 sweep runner, the scaled-sweep helper and the distribution chaos sweep."""

import pytest

from repro.errors import SimulationError
from repro.eval.chaos import run_chaos_sweep
from repro.eval.experiments import PAPER_SWEEP, run_fig4_sweep, scaled_sweep


class TestScaledSweep:
    def test_full_population_unscaled(self):
        assert scaled_sweep(24000) == PAPER_SWEEP

    def test_small_population_scaled_down(self):
        sizes = scaled_sweep(300)
        assert max(sizes) <= 180  # 60% of 300
        assert len(sizes) >= 3
        assert sizes == tuple(sorted(sizes))

    def test_tiny_population(self):
        sizes = scaled_sweep(10)
        assert max(sizes) <= 6
        assert min(sizes) >= 2


class TestFig4Sweep:
    @pytest.fixture(scope="class")
    def points(self, request):
        small_corpus = request.getfixturevalue("small_corpus")
        check = small_corpus.payload_check()
        sizes = scaled_sweep(len([p for p in small_corpus.trace if check.is_sensitive(p)]))
        return run_fig4_sweep(small_corpus.trace, check, sizes[:3], seed=5)

    def test_one_point_per_size(self, points):
        assert len(points) == 3

    def test_rates_in_percent_range(self, points):
        for point in points:
            assert 0.0 <= point.tp_percent <= 100.0
            assert 0.0 <= point.fn_percent <= 100.0
            assert 0.0 <= point.fp_percent <= 100.0

    def test_tp_fn_complementary(self, points):
        for point in points:
            assert point.tp_percent + point.fn_percent == pytest.approx(100.0, abs=1.0)

    def test_fp_stays_low(self, points):
        assert all(point.fp_percent < 10.0 for point in points)

    def test_signatures_generated(self, points):
        assert all(point.n_signatures > 0 for point in points)


class TestChaosSweep:
    @pytest.mark.parametrize("n_devices", [0, -2])
    def test_rejects_an_empty_fleet(self, small_corpus, n_devices):
        with pytest.raises(SimulationError, match="n_devices must be >= 1"):
            run_chaos_sweep(
                small_corpus.trace, small_corpus.payload_check(), [0.0], n_devices=n_devices
            )
