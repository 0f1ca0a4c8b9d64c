"""The screening gateway: equivalence, shedding, backpressure, hot reload."""

import math
from collections import Counter

import pytest

from repro.errors import SimulationError
from repro.obs.metrics import Metrics
from repro.service.repository import InMemorySignatureRepository
from repro.service.server import SignatureService
from repro.serving.gateway import (
    DEPTH_BOUNDS,
    LATENCY_BOUNDS,
    GatewayConfig,
    ReloadEvent,
    ScreeningGateway,
    ServeOutcome,
    ShedPolicy,
)
from repro.serving.loadgen import FleetLoadGenerator, LoadProfile, ScreeningEvent
from repro.signatures.matcher import SignatureMatcher
from tests.conftest import call_with_timeout, make_packet
from tests.test_serving_shards import corpus_signatures


def reload_signatures(corpus):
    """A second, different signature set for hot-reload tests."""
    return list(reversed(corpus_signatures(corpus, limit=18)))


@pytest.fixture(scope="module")
def envelopes(small_corpus):
    """Versions 1 and 2 as a repository publishes them, by version."""
    repository = InMemorySignatureRepository()
    published = [
        repository.publish(corpus_signatures(small_corpus)),
        repository.publish(reload_signatures(small_corpus)),
    ]
    return {envelope.set_version: envelope for envelope in published}


def run_gateway(corpus, envelopes, *, batch_size, n_shards, seed=0, n_events=300,
                mean_interarrival=0.5, queue_capacity=64, policy=ShedPolicy.DEGRADE,
                reload_fraction=0.5, with_reload=True):
    """One gateway run with a mid-stream reload; returns (gateway, results, stream)."""
    profile = LoadProfile(mean_interarrival_ticks=mean_interarrival)
    stream = FleetLoadGenerator(corpus, profile, seed=seed).events(n_events)
    boot = envelopes[1]
    reloads = []
    if with_reload:
        reloads = [ReloadEvent(tick=stream[int(len(stream) * reload_fraction)].tick,
                               envelope=envelopes[2])]
    gateway = ScreeningGateway(
        list(boot.signatures),
        config=GatewayConfig(
            batch_size=batch_size,
            n_shards=n_shards,
            queue_capacity=queue_capacity,
            shed_policy=policy,
        ),
        set_version=boot.set_version,
    )
    results = gateway.run(stream, reloads=reloads)
    return gateway, results, stream


class TestBitIdenticalDecisions:
    """Acceptance: equivalence at >= 2 shard counts and >= 2 batch sizes."""

    @pytest.mark.parametrize("n_shards", [1, 3])
    @pytest.mark.parametrize("batch_size", [1, 4, 8])
    def test_matches_sequential_matcher(self, small_corpus, envelopes, n_shards, batch_size):
        reference = {
            version: SignatureMatcher(list(envelopes[version].signatures))
            for version in (1, 2)
        }
        gateway, results, stream = run_gateway(
            small_corpus, envelopes, batch_size=batch_size, n_shards=n_shards
        )
        assert len(results) == len(stream)
        assert [r.event.seq for r in results] == [e.seq for e in stream]
        screened = [r for r in results if r.screened]
        assert screened, "scenario must actually screen traffic"
        for result in screened:
            expected = reference[result.set_version].match(result.event.packet)
            assert expected == result.match
        assert {r.set_version for r in screened} == {1, 2}  # reload really happened

    def test_shard_count_never_changes_anything(self, small_corpus, envelopes):
        # Sharding is pure partitioning: with batching and the reload held
        # fixed, even generations and latencies are identical across counts.
        baseline = None
        for n_shards in (1, 2, 5):
            __, results, __stream = run_gateway(
                small_corpus, envelopes, batch_size=4, n_shards=n_shards
            )
            verdicts = [(r.event.seq, r.outcome, r.match, r.generation, r.completed_tick)
                        for r in results]
            if baseline is None:
                baseline = verdicts
            else:
                assert verdicts == baseline

    def test_batch_size_never_changes_verdicts(self, small_corpus, envelopes):
        # Batching changes *when* packets are screened (and hence how a
        # reload lands), so compare pure verdicts on a fixed signature set.
        # arrivals slower than batch_size=1's worst-case cost, so nothing sheds
        baseline = None
        for batch_size in (1, 4, 8):
            __, results, __stream = run_gateway(
                small_corpus, envelopes, batch_size=batch_size, n_shards=2,
                with_reload=False, mean_interarrival=2.0,
            )
            assert all(r.screened for r in results)
            verdicts = [(r.event.seq, r.outcome, r.match) for r in results if r.screened]
            if baseline is None:
                baseline = verdicts
            else:
                assert verdicts == baseline


class TestSheddingAndBackpressure:
    def overload(self, corpus, envelopes, policy):
        return run_gateway(
            corpus, envelopes,
            batch_size=4, n_shards=2, queue_capacity=4,
            mean_interarrival=0.05, n_events=400, policy=policy,
        )

    def test_overload_sheds(self, small_corpus, envelopes):
        gateway, results, __ = self.overload(small_corpus, envelopes, ShedPolicy.DEGRADE)
        shed = [r for r in results if not r.screened]
        assert shed
        assert gateway.metrics.counters["shed"] == len(shed)
        assert gateway.metrics.counters["admitted"] == len(results) - len(shed)

    def test_degrade_policy_uses_keyword_fallback(self, small_corpus, envelopes):
        __, results, __stream = self.overload(small_corpus, envelopes, ShedPolicy.DEGRADE)
        shed_outcomes = {r.outcome for r in results if not r.screened}
        assert shed_outcomes <= {
            ServeOutcome.SHED_DEGRADED_CLEAN, ServeOutcome.SHED_DEGRADED_FLAGGED
        }
        assert ServeOutcome.SHED_DEGRADED_FLAGGED in shed_outcomes  # corpus leaks identifiers

    def test_drop_policy_marks_unscreened(self, small_corpus, envelopes):
        __, results, __stream = self.overload(small_corpus, envelopes, ShedPolicy.DROP)
        shed = [r for r in results if not r.screened]
        assert shed and all(r.outcome is ServeOutcome.SHED_DROPPED for r in shed)
        assert all(r.batch_id == -1 and r.latency_ticks == 0.0 for r in shed)

    def test_batches_respect_size_bound(self, small_corpus, envelopes):
        gateway, results, __stream = self.overload(small_corpus, envelopes, ShedPolicy.DEGRADE)
        sizes = list(Counter(r.batch_id for r in results if r.batch_id >= 0).values())
        assert len(sizes) == gateway.metrics.counters["batches"]
        assert sizes and max(sizes) <= 4
        # under sustained overload the queue keeps batches full
        assert sizes.count(4) > len(sizes) // 2

    def test_latency_grows_under_load(self, small_corpus, envelopes):
        __, calm, __a = run_gateway(
            small_corpus, envelopes, batch_size=4, n_shards=2, mean_interarrival=2.0
        )
        # same arrivals, 10x the rate, deep queue: waiting dominates
        __, hot, __b = run_gateway(
            small_corpus, envelopes, batch_size=4, n_shards=2,
            mean_interarrival=0.2, queue_capacity=256,
        )
        mean = lambda rs: sum(r.latency_ticks for r in rs) / len(rs)  # noqa: E731
        calm_screened = [r for r in calm if r.screened]
        hot_screened = [r for r in hot if r.screened]
        assert mean(hot_screened) > 2 * mean(calm_screened)


class TestHotReload:
    def test_generation_swap_mid_stream(self, small_corpus, envelopes):
        gateway, results, __ = run_gateway(
            small_corpus, envelopes, batch_size=8, n_shards=2
        )
        assert gateway.generation == 2 and gateway.set_version == 2
        generations = {r.generation for r in results}
        assert generations == {1, 2}

    def test_stale_reload_rejected(self, small_corpus, envelopes):
        boot = envelopes[2]
        gateway = ScreeningGateway(list(boot.signatures), set_version=boot.set_version)
        stream = FleetLoadGenerator(small_corpus, seed=1).events(40)
        stale = [ReloadEvent(tick=stream[10].tick, envelope=envelopes[1])]
        gateway.run(stream, reloads=stale)
        assert gateway.set_version == 2 and gateway.generation == 1
        assert gateway.metrics.counters["reloads_rejected"] == 1
        assert gateway.metrics.counters.get("reloads_applied", 0) == 0

    def test_reload_after_last_batch_still_applies(self, small_corpus, envelopes):
        boot = envelopes[1]
        gateway = ScreeningGateway(list(boot.signatures), set_version=1)
        stream = FleetLoadGenerator(small_corpus, seed=2).events(20)
        late = [ReloadEvent(tick=stream[-1].tick + 1000.0, envelope=envelopes[2])]
        results = gateway.run(stream, reloads=late)
        assert all(r.generation == 1 for r in results)
        assert gateway.set_version == 2  # ready for the next run()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6])
    def test_property_no_batch_mixes_generations_and_no_regression(
        self, small_corpus, envelopes, seed
    ):
        """A mid-stream reload never mixes generations within one batch
        and never regresses to an older version."""
        fraction = 0.25 + 0.1 * (seed % 5)
        gateway, results, stream = run_gateway(
            small_corpus, envelopes,
            batch_size=5, n_shards=3, seed=seed,
            mean_interarrival=0.2, queue_capacity=16,
            reload_fraction=fraction,
        )
        reload_tick = stream[int(len(stream) * fraction)].tick  # as run_gateway schedules it
        assert gateway.metrics.counters["reloads_applied"] == 1
        batches = {}
        for result in results:
            if result.batch_id >= 0:
                batches.setdefault(result.batch_id, []).append(result)
        # every batch carries exactly one generation and set version
        assert batches and all(
            len({(r.generation, r.set_version) for r in batch}) == 1
            for batch in batches.values()
        )
        # generations never decrease in dispatch order, and versions track them
        ordered = [batches[batch_id] for batch_id in sorted(batches)]
        generations = [batch[0].generation for batch in ordered]
        versions = [batch[0].set_version for batch in ordered]
        assert generations == sorted(generations)
        assert versions == sorted(versions)
        assert set(generations) == {1, 2}
        # batches dispatched before the reload tick keep the old generation.
        # A batch completes at its dispatch tick plus its service cost; summed
        # in the gateway's order, a batch dispatched at the reload tick itself
        # completes exactly at ``at_reload``.
        config = gateway.config
        for batch in ordered:
            at_reload = (
                reload_tick + config.batch_overhead_ticks + config.per_packet_ticks * len(batch)
            )
            if batch[0].generation == 1:
                assert batch[0].completed_tick < at_reload
            else:
                assert batch[0].completed_tick >= at_reload


class TestValidationAndTelemetry:
    def test_rejects_unordered_stream(self, small_corpus, envelopes):
        stream = FleetLoadGenerator(small_corpus, seed=0).events(10)
        shuffled = [stream[1], stream[0], *stream[2:]]
        gateway = ScreeningGateway(list(envelopes[1].signatures))
        with pytest.raises(SimulationError):
            gateway.run(shuffled)

    @pytest.mark.parametrize("tick", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_tick_before_serving(self, envelopes, tick):
        # A NaN tick once spun the event loop forever: it never compares
        # below a dispatch time, and no dispatch time compares below it.
        packet = make_packet(target="/p?x=1")
        events = [
            ScreeningEvent(seq=0, tick=0.0, device_id="d", packet=packet),
            ScreeningEvent(seq=1, tick=tick, device_id="d", packet=packet),
        ]
        gateway = ScreeningGateway(list(envelopes[1].signatures))
        with pytest.raises(SimulationError, match="arrival tick must be finite"):
            call_with_timeout(lambda: gateway.run(events), 10.0)
        assert gateway.metrics.counters.get("admitted", 0) == 0
        assert gateway.run(events[:1])[0].screened  # still serving

    def test_rejects_bad_config(self):
        with pytest.raises(SimulationError):
            GatewayConfig(queue_capacity=0)
        with pytest.raises(SimulationError):
            GatewayConfig(batch_size=0)
        with pytest.raises(SimulationError):
            GatewayConfig(per_packet_ticks=-1.0)

    def test_decision_counters_sum_to_events(self, small_corpus, envelopes):
        gateway, results, stream = run_gateway(
            small_corpus, envelopes, batch_size=4, n_shards=2,
            mean_interarrival=0.1, queue_capacity=8,
        )
        counters = gateway.metrics.counters
        decisions = sum(v for k, v in counters.items() if k.startswith("decisions_"))
        assert decisions == len(stream) == len(results)
        assert counters["admitted"] + counters["shed"] == len(stream)

    def test_shared_registry_lists_histograms_at_boot(self, envelopes):
        metrics = Metrics()
        metrics.inc("channel_publishes")
        gateway = ScreeningGateway(list(envelopes[1].signatures), metrics=metrics)
        assert gateway.metrics is metrics
        bounds = {name: h.bounds for name, h in metrics.histograms.items()}
        assert bounds == {
            "latency_ticks": LATENCY_BOUNDS,
            "shed_latency_ticks": LATENCY_BOUNDS,
            "queue_depth": DEPTH_BOUNDS,
            "batch_size": DEPTH_BOUNDS,
        }
        assert all(h.count == 0 for h in metrics.histograms.values())
        packet = make_packet(target="/p?x=1")
        gateway.run([ScreeningEvent(seq=0, tick=0.0, device_id="d", packet=packet)])
        assert metrics.counters["channel_publishes"] == 1
        assert metrics.counters["admitted"] == metrics.counters["batches"] == 1
        assert metrics.histograms["batch_size"].count == 1
        assert "repro_batches 1" in metrics.to_prometheus()
        # a booted service lists all four before its first screen
        text = SignatureService(list(envelopes[1].signatures)).metrics_text()
        for name in bounds:
            assert f"# TYPE repro_{name} histogram" in text

    def test_single_packet_stream(self, envelopes):
        packet = make_packet(target="/p?x=1")
        event = ScreeningEvent(seq=0, tick=0.0, device_id="d", packet=packet)
        gateway = ScreeningGateway(list(envelopes[1].signatures))
        results = gateway.run([event])
        assert len(results) == 1 and results[0].screened


class TestHealthSnapshot:
    def test_fresh_gateway_snapshot(self, envelopes):
        gateway = ScreeningGateway(list(envelopes[1].signatures))
        snapshot = gateway.health_snapshot()
        assert snapshot["generation"] == 1
        assert snapshot["set_version"] == 1
        assert snapshot["n_signatures"] == len(envelopes[1].signatures)
        assert snapshot["admitted"] == 0 and snapshot["shed"] == 0
        assert snapshot["degraded"] is False

    def test_snapshot_consistent_with_counters_under_load(self, small_corpus, envelopes):
        gateway, results, stream = run_gateway(
            small_corpus, envelopes, batch_size=4, n_shards=2,
            mean_interarrival=0.1, queue_capacity=8,
        )
        snapshot = gateway.health_snapshot()
        counters = gateway.metrics.counters
        assert snapshot["admitted"] == counters["admitted"]
        assert snapshot["shed"] == counters["shed"]
        assert snapshot["admitted"] + snapshot["shed"] == len(stream)
        assert snapshot["generation"] == gateway.generation == 2
        assert snapshot["set_version"] == 2
        assert snapshot["reloads_applied"] == 1
        assert snapshot["queue_depth_max"] <= 8
        assert snapshot["queue_depth_p50"] <= snapshot["queue_depth_max"]

    def test_degraded_flag_tracks_shed_policy(self, small_corpus, envelopes):
        gateway, results, __ = run_gateway(
            small_corpus, envelopes, batch_size=4, n_shards=2,
            mean_interarrival=0.05, queue_capacity=4,
            policy=ShedPolicy.DEGRADE, with_reload=False,
        )
        snapshot = gateway.health_snapshot()
        assert snapshot["shed"] > 0
        assert snapshot["degraded"] is True
        assert snapshot["shed_degraded"] == snapshot["shed"]
        assert snapshot["shed_dropped"] == 0

    def test_dropped_not_flagged_degraded(self, small_corpus, envelopes):
        gateway, results, __ = run_gateway(
            small_corpus, envelopes, batch_size=4, n_shards=2,
            mean_interarrival=0.05, queue_capacity=4,
            policy=ShedPolicy.DROP, with_reload=False,
        )
        snapshot = gateway.health_snapshot()
        assert snapshot["shed"] > 0
        assert snapshot["shed_dropped"] == snapshot["shed"]
        assert snapshot["degraded"] is False

    def test_snapshot_is_stable_and_json_safe(self, small_corpus, envelopes):
        import json as json_module

        gateway, __, __s = run_gateway(
            small_corpus, envelopes, batch_size=4, n_shards=2,
            mean_interarrival=0.1, queue_capacity=8,
        )
        first = gateway.health_snapshot()
        second = gateway.health_snapshot()
        assert first == second  # reading health must not mutate state
        json_module.dumps(first)  # and it must serialize as-is
