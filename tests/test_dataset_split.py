"""Suspicious/normal splitting and seeded sampling."""

import pytest

from repro.dataset.split import holdout_split, sample_packets
from repro.errors import DatasetError
from tests.conftest import make_packet


class TestSample:
    def test_sample_size_and_uniqueness(self):
        packets = [make_packet(target=f"/p?i={i}") for i in range(20)]
        sample = sample_packets(packets, 5, seed=1)
        assert len(sample) == 5
        assert len({id(p) for p in sample}) == 5

    def test_sample_deterministic(self):
        packets = [make_packet(target=f"/p?i={i}") for i in range(20)]
        a = sample_packets(packets, 5, seed=1)
        b = sample_packets(packets, 5, seed=1)
        assert [p.request.target for p in a] == [p.request.target for p in b]

    def test_sample_seed_matters(self):
        packets = [make_packet(target=f"/p?i={i}") for i in range(20)]
        a = sample_packets(packets, 5, seed=1)
        b = sample_packets(packets, 5, seed=2)
        assert [p.request.target for p in a] != [p.request.target for p in b]

    def test_sample_too_large_rejected(self):
        with pytest.raises(DatasetError):
            sample_packets([make_packet()], 2)

    def test_sample_negative_rejected(self):
        with pytest.raises(DatasetError):
            sample_packets([make_packet()], -1)

    def test_sample_zero(self):
        assert sample_packets([make_packet()], 0) == []


class TestHoldout:
    def test_fraction_split(self):
        packets = [make_packet(target=f"/p?i={i}") for i in range(10)]
        train, held = holdout_split(packets, 0.7, seed=3)
        assert len(train) == 7
        assert len(held) == 3
        assert {p.request.target for p in train} | {p.request.target for p in held} == {
            p.request.target for p in packets
        }

    def test_invalid_fraction(self):
        with pytest.raises(DatasetError):
            holdout_split([make_packet()], 1.5)

    def test_deterministic(self):
        packets = [make_packet(target=f"/p?i={i}") for i in range(10)]
        a_train, __ = holdout_split(packets, 0.5, seed=9)
        b_train, __ = holdout_split(packets, 0.5, seed=9)
        assert [p.request.target for p in a_train] == [p.request.target for p in b_train]
