"""Backoff schedules, jitter bounds, circuit breaking — all on logical time."""

from random import Random

import pytest

from repro.errors import SimulationError
from repro.reliability.quarantine import Quarantine
from repro.reliability.retry import BreakerState, CircuitBreaker, RetryPolicy


def delays(policy, rng):
    """The backoffs of one exhausted session, drawn as the fetcher draws them."""
    return [policy.backoff(k, rng) for k in range(policy.max_attempts - 1)]


class TestRetryPolicy:
    def test_schedule_is_deterministic(self):
        policy = RetryPolicy(max_attempts=5, jitter=0.3)
        assert delays(policy, Random(7)) == delays(policy, Random(7))

    def test_delays_grow_geometrically_without_jitter(self):
        policy = RetryPolicy(max_attempts=4, base_delay=1.0, multiplier=2.0, jitter=0.0)
        assert delays(policy, Random(0)) == [1.0, 2.0, 4.0]

    def test_max_delay_caps_growth(self):
        policy = RetryPolicy(max_attempts=8, base_delay=1.0, multiplier=3.0,
                             max_delay=5.0, jitter=0.0)
        assert max(delays(policy, Random(0))) == 5.0

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(max_attempts=2, base_delay=10.0, jitter=0.25)
        rng = Random(1)
        for __ in range(200):
            delay = policy.backoff(0, rng)
            assert 7.5 <= delay <= 12.5

    def test_rejects_bad_parameters(self):
        with pytest.raises(SimulationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(SimulationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(SimulationError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(SimulationError):
            RetryPolicy(base_delay=-1.0)

    def test_rejects_negative_retry_index(self):
        with pytest.raises(SimulationError):
            RetryPolicy().backoff(-1, Random(0))

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    @pytest.mark.parametrize("jitter", [0.0, 0.1, 0.25, 0.5, 0.99])
    def test_same_seed_same_schedule(self, seed, jitter):
        policy = RetryPolicy(max_attempts=6, base_delay=0.5, multiplier=3.0, jitter=jitter)
        assert delays(policy, Random(seed)) == delays(policy, Random(seed))

    @pytest.mark.parametrize("jitter", [0.0, 0.1, 0.25, 0.5, 0.99])
    def test_delay_always_within_hard_bounds(self, jitter):
        # Property sweep: for every retry index the delay stays within
        # [0, max_delay * (1 + jitter)] no matter what the rng draws.
        policy = RetryPolicy(
            max_attempts=32, base_delay=2.0, multiplier=2.5, max_delay=40.0, jitter=jitter
        )
        ceiling = policy.max_delay * (1.0 + jitter)
        rng = Random(99)
        for retry_index in range(31):
            for __ in range(50):
                delay = policy.backoff(retry_index, rng)
                assert 0.0 <= delay <= ceiling, (
                    f"delay {delay} outside [0, {ceiling}] at retry {retry_index}"
                )

    def test_unjittered_delay_is_pure_function_of_index(self):
        policy = RetryPolicy(max_attempts=10, base_delay=1.5, multiplier=2.0,
                             max_delay=100.0, jitter=0.0)
        for retry_index in range(9):
            expected = min(100.0, 1.5 * 2.0**retry_index)
            assert policy.backoff(retry_index, Random(0)) == expected


class TestCircuitBreaker:
    def test_stays_closed_below_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=10.0)
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        assert breaker.allow(3.0)
        assert breaker.state(3.0) is BreakerState.CLOSED

    def test_trips_at_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=10.0)
        for tick in (1.0, 2.0, 3.0):
            breaker.record_failure(tick)
        assert not breaker.allow(4.0)
        assert breaker.state(4.0) is BreakerState.OPEN
        assert breaker.trips == 1

    def test_half_opens_after_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=10.0)
        breaker.record_failure(0.0)
        assert not breaker.allow(5.0)
        assert breaker.allow(10.0)  # cooldown elapsed: probe admitted
        assert breaker.state(10.0) is BreakerState.HALF_OPEN

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=10.0)
        breaker.record_failure(0.0)
        assert breaker.allow(10.0)
        breaker.record_success()
        assert breaker.state(11.0) is BreakerState.CLOSED
        assert breaker.consecutive_failures == 0

    def test_probe_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=10.0)
        breaker.record_failure(0.0)
        assert breaker.allow(10.0)
        breaker.record_failure(10.0)
        assert not breaker.allow(15.0)  # fresh cooldown from the probe failure
        assert breaker.trips == 2

    def test_success_resets_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=10.0)
        breaker.record_failure(1.0)
        breaker.record_success()
        breaker.record_failure(2.0)
        assert breaker.state(3.0) is BreakerState.CLOSED

    def test_rejects_bad_parameters(self):
        with pytest.raises(SimulationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(SimulationError):
            CircuitBreaker(cooldown=-1.0)

    def test_allow_transitions_open_to_half_open_exactly_at_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=10.0)
        breaker.record_failure(0.0)
        # one tick early: still open, no probe admitted
        assert breaker.state(9.999) is BreakerState.OPEN
        assert not breaker.allow(9.999)
        # at the boundary: half-open, and allow() latches the transition
        assert breaker.state(10.0) is BreakerState.HALF_OPEN
        assert breaker.allow(10.0)
        assert breaker.state(10.0) is BreakerState.HALF_OPEN

    def test_half_open_keeps_admitting_until_verdict(self):
        # Half-open is not a one-shot gate: until the probe reports
        # success or failure, further calls are admitted too.
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0)
        breaker.record_failure(0.0)
        assert breaker.allow(5.0)
        assert breaker.allow(6.0)
        assert breaker.state(6.0) is BreakerState.HALF_OPEN

    def test_half_open_failure_restarts_full_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=10.0)
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)  # trips at tick 1
        assert breaker.allow(11.0)  # probe admitted half-open
        breaker.record_failure(11.0)  # probe fails -> reopen at tick 11
        assert not breaker.allow(20.0)  # 9 ticks in: still cooling down
        assert breaker.allow(21.0)  # full cooldown from the reopen
        assert breaker.trips == 2


class TestQuarantine:
    def test_counts_by_reason(self):
        quarantine = Quarantine()
        quarantine.add(ValueError("bad"), payload={"x": 1})
        quarantine.add(KeyError("raw"))
        quarantine.add(ValueError("worse"))
        assert quarantine.summary() == {"ValueError": 2, "KeyError": 1}
        assert quarantine.total == 3

    def test_bounded_buffer_keeps_counting(self):
        quarantine = Quarantine(capacity=2)
        for index in range(5):
            quarantine.add(ValueError(str(index)))
        assert len(quarantine) == 2
        assert quarantine.total == 5
        # newest records are the ones retained
        assert [record.error for record in quarantine.records] == ["3", "4"]

    def test_preview_truncated(self):
        quarantine = Quarantine()
        record = quarantine.add(ValueError("x"), payload="y" * 500)
        assert len(record.preview) <= 96

    def test_falsy_when_empty(self):
        assert not Quarantine()
        with pytest.raises(SimulationError):
            Quarantine(capacity=0)

    def test_eviction_is_oldest_first(self):
        # At capacity the buffer behaves as a FIFO: each new record evicts
        # exactly the oldest one, preserving arrival order of the rest.
        quarantine = Quarantine(capacity=3)
        for index in range(3):
            quarantine.add(ValueError(f"rec-{index}"), payload=index)
        assert [record.error for record in quarantine.records] == [
            "rec-0", "rec-1", "rec-2",
        ]
        quarantine.add(ValueError("rec-3"), payload=3)
        assert [record.error for record in quarantine.records] == [
            "rec-1", "rec-2", "rec-3",
        ]
        quarantine.add(ValueError("rec-4"), payload=4)
        assert [record.error for record in quarantine.records] == [
            "rec-2", "rec-3", "rec-4",
        ]
        # counting keeps including the evicted records
        assert quarantine.total == 5


class TestQuarantineBans:
    def test_ban_and_permanent_default(self):
        quarantine = Quarantine()
        quarantine.ban("device-00001", now=0.0)
        assert quarantine.is_banned("device-00001", now=1e9)  # no cooldown: forever
        assert not quarantine.is_banned("device-00002", now=0.0)
        assert quarantine.bans == 1

    def test_cooldown_auto_releases(self):
        quarantine = Quarantine(release_after_ticks=10.0)
        quarantine.ban("device-00001", now=5.0)
        assert quarantine.is_banned("device-00001", now=14.999)
        assert not quarantine.is_banned("device-00001", now=15.0)  # elapsed exactly
        assert quarantine.releases == 1
        # released means released: asking again is a plain miss
        assert not quarantine.is_banned("device-00001", now=15.0)
        assert quarantine.releases == 1

    def test_reban_restarts_the_clock(self):
        quarantine = Quarantine(release_after_ticks=10.0)
        quarantine.ban("device-00001", now=0.0)
        quarantine.ban("device-00001", now=8.0)  # fresh offence at tick 8
        assert quarantine.is_banned("device-00001", now=12.0)  # 0-based ban expired, 8-based not
        assert not quarantine.is_banned("device-00001", now=18.0)
        assert quarantine.bans == 2

    def test_manual_release(self):
        quarantine = Quarantine(release_after_ticks=10.0)
        quarantine.ban("device-00001", now=0.0)
        assert quarantine.release("device-00001")
        assert not quarantine.is_banned("device-00001", now=1.0)
        assert not quarantine.release("device-00001")  # already out
        assert quarantine.releases == 1

    def test_banned_members_sorted_and_pruned(self):
        quarantine = Quarantine(release_after_ticks=10.0)
        quarantine.ban("device-00002", now=0.0)
        quarantine.ban("device-00001", now=5.0)
        assert quarantine.banned_members(now=2.0) == ["device-00001", "device-00002"]
        # the tick-0 ban expires; listing releases it as a side effect
        assert quarantine.banned_members(now=11.0) == ["device-00001"]
        assert quarantine.releases == 1

    def test_ban_with_error_lands_in_summary(self):
        quarantine = Quarantine()
        quarantine.ban("device-00001", now=0.0, error=ValueError("bad seq"), reason="replay")
        assert quarantine.summary() == {"replay": 1}
        assert quarantine.total == 1

    def test_bad_release_ticks_rejected(self):
        with pytest.raises(SimulationError):
            Quarantine(release_after_ticks=0.0)
