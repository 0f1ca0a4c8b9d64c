"""The fleet load generator: determinism, ordering, burst shaping."""

import pytest

from repro.errors import SimulationError
from repro.serving.loadgen import FleetLoadGenerator, LoadProfile


class TestEventStream:
    def test_deterministic_for_seed(self, small_corpus):
        a = FleetLoadGenerator(small_corpus, seed=5).events(200)
        b = FleetLoadGenerator(small_corpus, seed=5).events(200)
        assert [(e.tick, e.device_id, e.seq) for e in a] == [
            (e.tick, e.device_id, e.seq) for e in b
        ]
        assert all(x.packet is y.packet for x, y in zip(a, b))

    def test_different_seed_different_stream(self, small_corpus):
        a = FleetLoadGenerator(small_corpus, seed=5).events(50)
        b = FleetLoadGenerator(small_corpus, seed=6).events(50)
        assert [e.tick for e in a] != [e.tick for e in b]

    def test_ticks_strictly_ordered_and_seq_dense(self, small_corpus):
        events = FleetLoadGenerator(small_corpus, seed=0).events(300)
        ticks = [e.tick for e in events]
        assert ticks == sorted(ticks)
        assert [e.seq for e in events] == list(range(300))

    def test_default_is_one_trace_pass(self, small_corpus):
        events = FleetLoadGenerator(small_corpus, seed=0).events()
        assert len(events) == len(small_corpus.trace)

    def test_cycles_trace_beyond_its_length(self, small_corpus):
        n = len(small_corpus.trace) + 25
        events = FleetLoadGenerator(small_corpus, seed=0).events(n)
        assert len(events) == n
        assert events[len(small_corpus.trace)].packet is events[0].packet

    def test_devices_within_fleet(self, small_corpus):
        profile = LoadProfile(n_devices=3)
        events = FleetLoadGenerator(small_corpus, profile, seed=1).events(120)
        devices = {e.device_id for e in events}
        assert devices <= {"device-000", "device-001", "device-002"}
        assert len(devices) == 3


class TestBurst:
    def test_burst_compresses_interarrivals(self, small_corpus):
        calm = LoadProfile(mean_interarrival_ticks=2.0)
        burst = LoadProfile(
            mean_interarrival_ticks=2.0, burst_factor=8.0, burst_start=0.0, burst_ticks=1e9
        )
        calm_events = FleetLoadGenerator(small_corpus, calm, seed=2).events(400)
        burst_events = FleetLoadGenerator(small_corpus, burst, seed=2).events(400)
        assert burst_events[-1].tick < calm_events[-1].tick / 4

    def test_burst_window_only(self, small_corpus):
        profile = LoadProfile(
            mean_interarrival_ticks=1.0, burst_factor=10.0, burst_start=0.0, burst_ticks=20.0
        )
        events = FleetLoadGenerator(small_corpus, profile, seed=3).events(500)
        inside = [e for e in events if e.tick < 20.0]
        outside = [e for e in events if e.tick >= 20.0]
        assert len(inside) > 100  # ~10x rate in the window
        assert outside  # stream continues past the burst


class TestDeviceSubstreams:
    def test_substream_deterministic(self, small_corpus):
        a = FleetLoadGenerator(small_corpus, seed=5).device_events(3, 20)
        b = FleetLoadGenerator(small_corpus, seed=5).device_events(3, 20)
        assert [(e.tick, e.seq) for e in a] == [(e.tick, e.seq) for e in b]
        assert all(x.packet is y.packet for x, y in zip(a, b))

    def test_substream_stable_under_fleet_growth(self, small_corpus):
        # The regression this class exists for: one device's stream is a
        # pure function of (corpus, profile, seed, device id) — generating
        # other devices' streams first must never perturb it.
        loadgen = FleetLoadGenerator(small_corpus, seed=5)
        before = loadgen.device_events(3, 20)
        for other in range(50):
            loadgen.device_events(other, 20)
        after = loadgen.device_events(3, 20)
        assert [(e.tick, e.seq) for e in before] == [(e.tick, e.seq) for e in after]
        assert [e.packet for e in before] == [e.packet for e in after]

    def test_distinct_devices_have_distinct_streams(self, small_corpus):
        loadgen = FleetLoadGenerator(small_corpus, seed=5)
        a = loadgen.device_events(0, 20)
        b = loadgen.device_events(1, 20)
        assert [e.tick for e in a] != [e.tick for e in b]

    def test_device_id_format(self):
        assert FleetLoadGenerator.device_id(3) == "device-00003"
        assert FleetLoadGenerator.device_id(12345) == "device-12345"

    def test_packet_pool_override(self, small_corpus, small_split):
        suspicious, __ = small_split
        loadgen = FleetLoadGenerator(small_corpus, seed=5, packets=suspicious)
        pool = {p.wire_bytes() for p in suspicious}
        events = loadgen.device_events(0, 30)
        assert all(e.packet.wire_bytes() in pool for e in events)

    def test_empty_packet_pool_rejected(self, small_corpus):
        with pytest.raises(SimulationError):
            FleetLoadGenerator(small_corpus, seed=5, packets=[])

    def test_rejects_bad_arguments(self, small_corpus):
        loadgen = FleetLoadGenerator(small_corpus, seed=5)
        with pytest.raises(SimulationError):
            loadgen.device_events(-1, 10)
        with pytest.raises(SimulationError):
            loadgen.device_events(0, 0)


class TestValidation:
    def test_rejects_bad_profile(self):
        with pytest.raises(SimulationError):
            LoadProfile(mean_interarrival_ticks=0.0)
        with pytest.raises(SimulationError):
            LoadProfile(n_devices=0)
        with pytest.raises(SimulationError):
            LoadProfile(burst_factor=0.5)
        with pytest.raises(SimulationError):
            LoadProfile(burst_ticks=-1.0)

    def test_rejects_non_positive_event_count(self, small_corpus):
        with pytest.raises(SimulationError):
            FleetLoadGenerator(small_corpus, seed=0).events(0)
