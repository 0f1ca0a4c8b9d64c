"""Seeded samplers."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.rng import derive_rng, poisson, zipf_sample


class TestPoisson:
    def test_zero_mean(self):
        assert poisson(Random(1), 0.0) == 0

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            poisson(Random(1), -1.0)

    def test_mean_converges_small(self):
        rng = Random(7)
        samples = [poisson(rng, 4.0) for __ in range(4000)]
        assert sum(samples) / len(samples) == pytest.approx(4.0, rel=0.08)

    def test_mean_converges_large(self):
        rng = Random(7)
        samples = [poisson(rng, 60.0) for __ in range(2000)]
        assert sum(samples) / len(samples) == pytest.approx(60.0, rel=0.05)

    def test_variance_roughly_mean(self):
        rng = Random(3)
        mean = 9.0
        samples = [poisson(rng, mean) for __ in range(5000)]
        m = sum(samples) / len(samples)
        var = sum((s - m) ** 2 for s in samples) / len(samples)
        assert var == pytest.approx(mean, rel=0.15)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 100.0), st.integers(0, 2**30))
    def test_non_negative_integers(self, mean, seed):
        value = poisson(Random(seed), mean)
        assert isinstance(value, int)
        assert value >= 0


class TestZipf:
    def test_needs_positive_n(self):
        with pytest.raises(ValueError):
            zipf_sample(Random(1), 0)

    def test_in_range(self):
        rng = Random(5)
        for __ in range(200):
            assert 0 <= zipf_sample(rng, 7) < 7

    def test_rank_zero_most_popular(self):
        rng = Random(5)
        counts = [0] * 5
        for __ in range(3000):
            counts[zipf_sample(rng, 5)] += 1
        assert counts[0] > counts[1] > counts[3]

    def test_exponent_flattens(self):
        rng = Random(5)
        flat_counts = [0] * 5
        for __ in range(3000):
            flat_counts[zipf_sample(rng, 5, exponent=0.0)] += 1
        # With exponent 0 the distribution is uniform-ish.
        assert max(flat_counts) < 2 * min(flat_counts)


class TestDeriveRng:
    def test_same_labels_same_stream(self):
        assert derive_rng(1, "a", "b").random() == derive_rng(1, "a", "b").random()

    def test_different_labels_different_stream(self):
        assert derive_rng(1, "a").random() != derive_rng(1, "b").random()

    def test_different_seeds_different_stream(self):
        assert derive_rng(1, "a").random() != derive_rng(2, "a").random()
