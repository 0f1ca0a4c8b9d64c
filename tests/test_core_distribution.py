"""The resilient server -> device signature distribution path."""

import pytest

from repro.core.distribution import FetchStatus, SignatureFetcher
from repro.core.flowcontrol import FlowControlApp
from repro.reliability.faults import FaultKind, FaultPlan
from repro.reliability.retry import BreakerState, CircuitBreaker, RetryPolicy
from repro.service.repository import (
    InMemorySignatureRepository,
    SqliteSignatureRepository,
    SqliteStore,
)
from repro.signatures.conjunction import ConjunctionSignature


def sigs(marker="imei=12345"):
    return [ConjunctionSignature(tokens=(marker,), scope_domain="adnet.com")]


def published(*markers, repository=None):
    """A repository holding one published version per marker, in order."""
    repository = repository or InMemorySignatureRepository()
    for marker in markers:
        repository.publish(sigs(marker))
    return repository


class TestChannel:
    def test_publish_assigns_monotonic_versions(self):
        repository = InMemorySignatureRepository()
        assert repository.publish(sigs()).set_version == 1
        assert repository.publish(sigs()).set_version == 2
        assert repository.latest_version() == 2

    def test_empty_source_is_a_drop(self):
        plan = FaultPlan(seed=1, corrupt=1.0)
        fetcher = SignatureFetcher(
            InMemorySignatureRepository(), plan, retry=RetryPolicy(max_attempts=3)
        )
        result = fetcher.fetch()
        assert result.status is FetchStatus.DEGRADED
        assert fetcher.health.drops == result.attempts == 3
        assert sum(plan.counts.values()) == 0  # no fault draw consumed

    def test_perfect_channel_delivers_latest(self):
        fetcher = SignatureFetcher(published("a=1", "b=2"))
        result = fetcher.fetch()
        assert result.status is FetchStatus.FRESH and result.set_version == 2
        assert list(result.signatures) == sigs("b=2")
        assert fetcher.health.delay_ticks == 0.0 and fetcher.clock == 1.0

    def test_stale_fault_serves_previous_version(self):
        plan = FaultPlan(seed=1, stale=1.0)
        result = SignatureFetcher(published("a=1", "b=2"), plan).fetch()
        assert plan.counts[FaultKind.STALE] == 1
        assert result.status is FetchStatus.FRESH and result.set_version == 1
        assert list(result.signatures) == sigs("a=1")

    def test_stale_with_single_version_serves_it(self):
        plan = FaultPlan(seed=1, stale=1.0)
        result = SignatureFetcher(published("a=1"), plan).fetch()
        assert plan.counts[FaultKind.STALE] == 1
        assert result.status is FetchStatus.FRESH and result.set_version == 1
        assert list(result.signatures) == sigs("a=1")

    def test_corrupt_newest_row_serves_previous_version(self):
        repository = published("a=1", "b=2")
        repository._documents[2] = "{not an envelope"
        result = SignatureFetcher(repository).fetch()
        assert result.status is FetchStatus.FRESH and result.set_version == 1
        assert list(result.signatures) == sigs("a=1")
        assert repository.corrupt_reads() == 1

    def test_sqlite_source_fetches_like_in_memory(self, tmp_path):
        def run(repository):
            fetcher = SignatureFetcher(
                published("a=1", "b=2", repository=repository),
                FaultPlan(seed=11, drop=0.2, truncate=0.1, corrupt=0.1, delay=0.2, stale=0.3),
                retry=RetryPolicy(max_attempts=3),
                seed=11,
            )
            results = [fetcher.fetch() for __ in range(6)]
            repository.publish(sigs("c=3"))
            results += [fetcher.fetch() for __ in range(6)]
            return results, fetcher.health

        in_memory = run(InMemorySignatureRepository())
        on_disk = run(SqliteSignatureRepository(SqliteStore(tmp_path / "signatures.db")))
        assert in_memory == on_disk
        statuses = {result.status for result in in_memory[0]}
        assert FetchStatus.FRESH in statuses and in_memory[1].stale_reads > 0


class TestFetcher:
    def test_happy_path_is_fresh(self):
        result = SignatureFetcher(published("imei=12345")).fetch()
        assert result.status is FetchStatus.FRESH
        assert result.set_version == 1
        assert result.attempts == 1
        assert list(result.signatures) == sigs()

    def test_retries_through_transient_drops(self):
        # Deterministically: find a seed where attempt 1 drops, a later
        # attempt succeeds within the budget.
        for seed in range(50):
            fetcher = SignatureFetcher(
                published("imei=12345"),
                FaultPlan(seed=seed, drop=0.5),
                retry=RetryPolicy(max_attempts=6),
                seed=seed,
            )
            result = fetcher.fetch()
            if result.status is FetchStatus.FRESH and result.attempts > 1:
                assert fetcher.health.drops == result.attempts - 1
                return
        pytest.fail("no seed produced drop-then-success within budget")

    def test_corrupt_envelope_fails_integrity_then_falls_back(self):
        fetcher = SignatureFetcher(
            published("imei=12345"),
            FaultPlan(seed=2, corrupt=1.0),
            retry=RetryPolicy(max_attempts=3),
        )
        result = fetcher.fetch()
        assert result.status is FetchStatus.DEGRADED
        assert fetcher.health.integrity_failures == 3
        assert result.signatures == ()

    def test_truncated_envelope_detected(self):
        fetcher = SignatureFetcher(
            published("imei=12345"),
            FaultPlan(seed=2, truncate=1.0),
            retry=RetryPolicy(max_attempts=2),
        )
        result = fetcher.fetch()
        assert result.status is FetchStatus.DEGRADED
        assert fetcher.health.integrity_failures == 2

    def test_exhausted_retries_fall_back_to_last_known_good(self):
        repository = published("v1=x")
        fetcher = SignatureFetcher(
            repository, FaultPlan(seed=0), retry=RetryPolicy(max_attempts=2)
        )
        assert fetcher.fetch().status is FetchStatus.FRESH
        # The transport turns hostile: everything drops from now on.
        fetcher.faults = FaultPlan(seed=1, drop=1.0)
        repository.publish(sigs("v2=y"))
        result = fetcher.fetch()
        assert result.status is FetchStatus.CACHED
        assert result.set_version == 1
        assert any("v1=x" in s.tokens[0] for s in result.signatures)
        assert fetcher.health.fallbacks == 1

    def test_degraded_when_nothing_ever_fetched(self):
        fetcher = SignatureFetcher(
            published("imei=12345"),
            FaultPlan(seed=3, drop=1.0),
            retry=RetryPolicy(max_attempts=4),
        )
        result = fetcher.fetch()
        assert result.status is FetchStatus.DEGRADED
        assert result.signatures == () and result.set_version == 0
        assert fetcher.health.degraded_sessions == 1

    def test_stale_read_never_regresses_installed_version(self):
        fetcher = SignatureFetcher(
            published("v1=x", "v2=y"), retry=RetryPolicy(max_attempts=2)
        )
        assert fetcher.fetch().set_version == 2
        # Now every read is stale (serves v1); fetcher must reject and fall
        # back to the cached v2 rather than downgrade.
        fetcher.faults = FaultPlan(seed=4, stale=1.0)
        result = fetcher.fetch()
        assert result.status is FetchStatus.CACHED
        assert result.set_version == 2
        assert fetcher.health.stale_reads == 2

    def test_delay_advances_logical_clock(self):
        fetcher = SignatureFetcher(
            published("imei=12345"), FaultPlan(seed=5, delay=1.0, max_delay_ticks=4.0)
        )
        result = fetcher.fetch()
        assert result.status is FetchStatus.FRESH
        assert fetcher.health.delay_ticks > 0.0
        assert fetcher.clock > 1.0

    def test_fetch_is_deterministic(self):
        def run():
            fetcher = SignatureFetcher(
                published("imei=12345"),
                FaultPlan(seed=6, drop=0.4, corrupt=0.2),
                retry=RetryPolicy(max_attempts=5),
                seed=6,
            )
            results = [fetcher.fetch() for __ in range(5)]
            return [(r.status, r.set_version, r.attempts) for r in results], fetcher.clock

        assert run() == run()


class TestCircuitBreaking:
    def test_open_breaker_fails_fast_without_channel_attempts(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=1000.0)
        fetcher = SignatureFetcher(
            published("imei=12345"),
            FaultPlan(seed=7, drop=1.0),
            retry=RetryPolicy(max_attempts=3),
            breaker=breaker,
        )
        first = fetcher.fetch()  # three drops -> breaker opens
        assert first.attempts == 3
        assert breaker.state(fetcher.clock) is BreakerState.OPEN
        second = fetcher.fetch()
        assert second.attempts == 0
        assert fetcher.health.breaker_rejections >= 1
        assert fetcher.health.breaker_state == BreakerState.OPEN.value

    def test_breaker_recovers_after_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=3.0)
        fetcher = SignatureFetcher(
            published("imei=12345"),
            FaultPlan(seed=8, drop=1.0),
            retry=RetryPolicy(max_attempts=2, base_delay=2.0, jitter=0.0),
            breaker=breaker,
        )
        fetcher.fetch()  # opens the breaker
        fetcher.faults = None  # network heals
        # Clock keeps advancing across sessions; eventually a probe passes.
        for __ in range(10):
            result = fetcher.fetch()
            if result.status is FetchStatus.FRESH:
                break
        assert result.status is FetchStatus.FRESH
        assert breaker.state(fetcher.clock) is BreakerState.CLOSED


class TestFetchInto:
    def test_fresh_fetch_installs_signatures(self):
        app = FlowControlApp.degraded()
        result = SignatureFetcher(published("imei=12345")).fetch_into(app)
        assert result.status is FetchStatus.FRESH
        assert not app.is_degraded
        assert app.signature_version == 1

    def test_degraded_fetch_leaves_app_in_keyword_mode(self):
        app = FlowControlApp.degraded()
        fetcher = SignatureFetcher(
            published("imei=12345"),
            FaultPlan(seed=9, drop=1.0),
            retry=RetryPolicy(max_attempts=2),
        )
        result = fetcher.fetch_into(app)
        assert result.status is FetchStatus.DEGRADED
        assert app.is_degraded

    def test_degraded_fetch_does_not_clobber_last_good_install(self):
        app = FlowControlApp.degraded()
        fetcher = SignatureFetcher(published("imei=12345"), retry=RetryPolicy(max_attempts=1))
        assert fetcher.fetch_into(app).status is FetchStatus.FRESH
        # New device, no cache, dead transport: its degraded result must not
        # wipe another app's set — but also the same fetcher's CACHED
        # result reinstalls the old version on the same app.
        fetcher.faults = FaultPlan(seed=10, drop=1.0)
        result = fetcher.fetch_into(app)
        assert result.status is FetchStatus.CACHED
        assert app.signature_version == 1
        assert not app.is_degraded
