"""FleetIngest: the quarantine -> admission -> validation -> dedup gauntlet."""

import tracemalloc
from dataclasses import dataclass, field
from typing import Any

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.errors import FederationError, ReportValidationError
from repro.federation.ingest import (
    PENDING_BREAKERS,
    FleetIngest,
    IngestConfig,
    ReportStatus,
    SubmitResult,
    shard_for,
)
from repro.federation.report import DeviceReport, decode_report, encode_report, token_for
from repro.obs import Observability
from repro.obs.metrics import Metrics
from repro.reliability.retry import BreakerState, CircuitBreaker
from repro.serving.gateway import ShedPolicy
from tests.conftest import make_packet


def envelope(seq: int, device_id: str = "device-00001", target: str = "/track?udid=x"):
    packet = make_packet(target=target)
    report = DeviceReport(
        device_id=device_id, seq=seq, token=token_for(packet), packet=packet
    )
    return encode_report(report)


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(n_shards=0),
        dict(queue_capacity=0),
        dict(dedup_window=0),
        dict(breaker_threshold=0),
        dict(quarantine_release_ticks=0.0),
        dict(per_report_ticks=-1.0),
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(FederationError):
            IngestConfig(**kwargs)


class TestSharding:
    def test_shard_assignment_is_stable(self):
        assert shard_for("device-00001", 8) == shard_for("device-00001", 8)

    def test_shards_in_range_and_spread(self):
        shards = {shard_for(f"device-{i:05d}", 8) for i in range(200)}
        assert all(0 <= shard < 8 for shard in shards)
        assert len(shards) == 8  # 200 devices cover all 8 shards

    def test_one_device_always_one_shard(self):
        ingest = FleetIngest(IngestConfig(n_shards=4))
        shards = {
            ingest.submit(envelope(seq), tick=float(seq)).shard for seq in range(1, 10)
        }
        assert len(shards) == 1


class TestAcceptance:
    def test_valid_report_accepted(self):
        ingest = FleetIngest()
        result = ingest.submit(envelope(1), tick=0.0)
        assert result.accepted
        assert result.status is ReportStatus.ACCEPTED
        assert result.report is not None
        assert result.report.seq == 1

    def test_gaps_in_sequence_are_fine(self):
        # Devices only report *candidate* leaks; most local traffic never
        # becomes a report, so the server sees gaps, not a dense sequence.
        ingest = FleetIngest()
        for seq in (1, 5, 9):
            assert ingest.submit(envelope(seq), tick=0.0).accepted

    def test_malformed_rejected_with_reason(self):
        ingest = FleetIngest()
        record = envelope(1)
        record["checksum"] = "0" * 64
        result = ingest.submit(record, tick=0.0)
        assert result.status is ReportStatus.REJECTED_MALFORMED
        assert result.reason == "checksum"
        assert ingest.rejection_reasons == {"checksum": 1}

    def test_garbage_submission_does_not_raise(self):
        ingest = FleetIngest()
        assert ingest.submit(None, tick=0.0).status is ReportStatus.REJECTED_MALFORMED
        assert ingest.submit([1, 2], tick=0.0).status is ReportStatus.REJECTED_MALFORMED


class TestReplayDefense:
    def test_duplicate_inside_window_rejected_as_duplicate(self):
        ingest = FleetIngest()
        ingest.submit(envelope(1), tick=0.0)
        result = ingest.submit(envelope(1), tick=1.0)
        assert result.status is ReportStatus.REJECTED_DUPLICATE

    def test_replay_behind_window_rejected_as_replay(self):
        # With a 2-deep window and high watermark 5, seq 4-5 are duplicates
        # (at-least-once redelivery) while seq 1 is a replay (history).
        ingest = FleetIngest(IngestConfig(dedup_window=2))
        for seq in range(1, 6):
            assert ingest.submit(envelope(seq), tick=float(seq)).accepted
        assert (
            ingest.submit(envelope(5), tick=6.0).status
            is ReportStatus.REJECTED_DUPLICATE
        )
        assert (
            ingest.submit(envelope(1), tick=7.0).status is ReportStatus.REJECTED_REPLAY
        )
        assert ingest.counts["rejected_replay"] == 1

    def test_watermark_never_regresses(self):
        ingest = FleetIngest()
        ingest.submit(envelope(3), tick=0.0)
        assert (
            ingest.submit(envelope(2), tick=1.0).status
            is not ReportStatus.ACCEPTED
        )
        assert ingest.submit(envelope(4), tick=2.0).accepted


class TestQuarantineCycle:
    def config(self) -> IngestConfig:
        return IngestConfig(breaker_threshold=3, quarantine_release_ticks=10.0)

    def trip(self, ingest: FleetIngest, tick: float) -> None:
        bad = envelope(1)
        bad["checksum"] = "0" * 64
        for _ in range(ingest.config.breaker_threshold):
            ingest.submit(bad, tick=tick)

    def test_violation_streak_quarantines(self):
        ingest = FleetIngest(self.config())
        self.trip(ingest, tick=0.0)
        result = ingest.submit(envelope(1), tick=1.0)
        assert result.status is ReportStatus.REJECTED_QUARANTINED
        assert result.status.retryable
        assert ingest.quarantine.bans == 1

    def test_cooldown_releases_and_readmits(self):
        ingest = FleetIngest(self.config())
        self.trip(ingest, tick=0.0)
        assert not ingest.submit(envelope(1), tick=5.0).accepted
        # Past the cooldown the ban lifts and the clean report lands.
        result = ingest.submit(envelope(1), tick=11.0)
        assert result.accepted
        assert ingest.quarantine.releases == 1

    def test_readmitted_device_gets_a_fresh_streak(self):
        # Re-admission must not leave the device one violation from a ban:
        # it takes a full threshold of new violations to re-trip.
        ingest = FleetIngest(self.config())
        self.trip(ingest, tick=0.0)
        bad = envelope(2)
        bad["checksum"] = "0" * 64
        ingest.submit(bad, tick=11.0)  # one violation after release
        assert ingest.submit(envelope(2), tick=12.0).accepted
        assert ingest.quarantine.bans == 1

    def test_repeat_offender_retrips(self):
        ingest = FleetIngest(self.config())
        self.trip(ingest, tick=0.0)
        self.trip(ingest, tick=11.0)
        assert (
            ingest.submit(envelope(1), tick=12.0).status
            is ReportStatus.REJECTED_QUARANTINED
        )
        assert ingest.quarantine.bans == 2
        assert ingest.quarantine.releases == 1

    def test_duplicates_count_as_violations(self):
        # A dedup-window hit is a protocol violation too — a device
        # hammering old sequence numbers ends up quarantined.
        ingest = FleetIngest(self.config())
        ingest.submit(envelope(1), tick=0.0)
        for _ in range(ingest.config.breaker_threshold):
            ingest.submit(envelope(1), tick=1.0)
        assert (
            ingest.submit(envelope(2), tick=2.0).status
            is ReportStatus.REJECTED_QUARANTINED
        )


class TestShedding:
    def flood(self, ingest: FleetIngest, n: int) -> list:
        # Same device -> same shard; same tick -> backlog only grows.
        return [ingest.submit(envelope(seq), tick=0.0) for seq in range(1, n + 1)]

    def test_drop_policy_sheds_overflow(self):
        ingest = FleetIngest(
            IngestConfig(queue_capacity=2, shed_policy=ShedPolicy.DROP, n_shards=1)
        )
        results = self.flood(ingest, 6)
        statuses = [result.status for result in results]
        assert ReportStatus.SHED_DROPPED in statuses
        shed = next(result for result in results if result.status is ReportStatus.SHED_DROPPED)
        assert shed.status.retryable

    def test_degrade_policy_validates_inline(self):
        ingest = FleetIngest(
            IngestConfig(queue_capacity=2, shed_policy=ShedPolicy.DEGRADE, n_shards=1)
        )
        results = self.flood(ingest, 6)
        assert all(result.accepted for result in results)
        assert any(result.degraded for result in results)
        assert ingest.counts["shed_degraded"] > 0

    def test_backlog_drains_with_the_clock(self):
        ingest = FleetIngest(
            IngestConfig(queue_capacity=2, shed_policy=ShedPolicy.DROP, n_shards=1)
        )
        self.flood(ingest, 6)
        # Much later the queue has drained; the same device is served again.
        assert ingest.submit(envelope(50), tick=100.0).accepted


class TestStats:
    def test_stats_shape(self):
        ingest = FleetIngest()
        ingest.submit(envelope(1), tick=0.0)
        ingest.submit(envelope(1), tick=1.0)
        bad = envelope(2)
        bad.pop("packet")
        ingest.submit(bad, tick=2.0)
        stats = ingest.stats()
        assert stats["submitted"] == 3
        assert stats["accepted"] == 1
        assert stats["devices_seen"] == 1
        assert stats["counts"]["rejected_duplicate"] == 1
        assert stats["counts"]["rejected_malformed"] == 1
        assert stats["rejection_reasons"] == {"schema": 1}
        assert stats["quarantine"]["bans"] == 0


# ---------------------------------------------------------------------------
# oracle: the ledger table before devices without an accepted report were
# bounded, verbatim apart from its names
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _OracleLedger:
    high_watermark: int = 0
    window: list[int] = field(default_factory=list)
    window_set: set[int] = field(default_factory=set)
    breaker: CircuitBreaker | None = None

    def remember(self, seq: int, capacity: int) -> None:
        self.window.append(seq)
        self.window_set.add(seq)
        if len(self.window) > capacity:
            self.window_set.discard(self.window.pop(0))


class _OracleIngest(FleetIngest):
    """One ledger per device id ever seen, made on its first violation too."""

    def __init__(self, config: IngestConfig) -> None:
        super().__init__(config)
        self._oracle_ledgers: dict[str, _OracleLedger] = {}

    def _ledger(self, device_id: str) -> _OracleLedger:
        ledger = self._oracle_ledgers.get(device_id)
        if ledger is None:
            ledger = _OracleLedger()
            self._oracle_ledgers[device_id] = ledger
        return ledger

    def _punish(self, device_id, error, tick, reason) -> bool:
        ledger = self._ledger(device_id)
        if ledger.breaker is None:
            ledger.breaker = CircuitBreaker(
                failure_threshold=self.config.breaker_threshold,
                cooldown=self.config.quarantine_release_ticks,
            )
        ledger.breaker.record_failure(tick)
        if ledger.breaker.state(tick) is not BreakerState.OPEN:
            return False
        self.quarantine.ban(
            device_id,
            tick,
            error=error or ReportValidationError(f"violation streak: {reason}", reason=reason),
            reason=reason,
        )
        ledger.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            cooldown=self.config.quarantine_release_ticks,
        )
        self.obs.inc("fed_ingest_quarantine_bans")
        return True

    def submit(self, record: Any, tick: float) -> SubmitResult:
        self.submitted_total += 1
        claimed_device = record.get("device_id") if isinstance(record, dict) else None
        device_id = claimed_device if isinstance(claimed_device, str) and claimed_device else ""
        shard = shard_for(device_id, self.config.n_shards)
        if device_id and self.quarantine.is_banned(device_id, tick):
            self._count(ReportStatus.REJECTED_QUARANTINED, degraded=False)
            return SubmitResult(status=ReportStatus.REJECTED_QUARANTINED, shard=shard)
        self.obs.set_gauge(
            "fed_ingest_quarantined_devices", len(self.quarantine.banned_members(tick))
        )
        degraded = False
        backlog = self._shard_backlog(shard, tick)
        self.obs.observe("fed_ingest_backlog", backlog)
        if backlog >= self.config.queue_capacity:
            if self.config.shed_policy is ShedPolicy.DROP:
                self._count(ReportStatus.SHED_DROPPED, degraded=False)
                return SubmitResult(status=ReportStatus.SHED_DROPPED, shard=shard)
            degraded = True
        try:
            report = decode_report(record)
        except ReportValidationError as exc:
            self.rejection_reasons[exc.reason] = self.rejection_reasons.get(exc.reason, 0) + 1
            banned = False
            if device_id:
                banned = self._punish(device_id, exc, tick, exc.reason)
            self._count(ReportStatus.REJECTED_MALFORMED, degraded=degraded)
            return SubmitResult(
                status=ReportStatus.REJECTED_MALFORMED,
                degraded=degraded,
                reason=exc.reason,
                shard=shard,
                banned=banned,
            )
        ledger = self._ledger(report.device_id)
        if report.seq <= ledger.high_watermark:
            if report.seq in ledger.window_set:
                status = ReportStatus.REJECTED_DUPLICATE
                reason = "duplicate"
            else:
                status = ReportStatus.REJECTED_REPLAY
                reason = "replay"
            banned = self._punish(report.device_id, None, tick, reason)
            self._count(status, degraded=degraded)
            return SubmitResult(
                status=status, degraded=degraded, reason=reason, shard=shard, banned=banned
            )
        ledger.high_watermark = report.seq
        ledger.remember(report.seq, self.config.dedup_window)
        if ledger.breaker is not None:
            ledger.breaker.record_success()
        if degraded:
            cost = self.config.degraded_report_ticks
        else:
            cost = self.config.per_report_ticks
            self._shard_busy_until[shard] = max(self._shard_busy_until[shard], tick) + cost
        self.accepted_total += 1
        self._count(ReportStatus.ACCEPTED, degraded=degraded)
        self.obs.advance(1)
        return SubmitResult(
            status=ReportStatus.ACCEPTED, report=report, degraded=degraded, shard=shard
        )

    def devices_seen(self) -> int:
        return sum(1 for ledger in self._oracle_ledgers.values() if ledger.high_watermark > 0)


def _corrupted(record: dict, kind: str) -> Any:
    if kind == "checksum":
        return {**record, "checksum": "0" * 64}
    if kind == "version":
        return {**record, "format_version": 999}
    if kind == "schema":
        return {key: value for key, value in record.items() if key != "packet"}
    if kind == "anonymous":
        return {**record, "device_id": ""}
    return [record]  # not a mapping at all


_stream_steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),  # device
        st.integers(min_value=1, max_value=12),  # seq
        st.sampled_from(["valid"] * 5 + ["checksum", "version", "schema", "anonymous", "list"]),
        st.sampled_from([0.0, 0.0, 0.5, 3.0, 40.0]),  # tick step
    ),
    min_size=1,
    max_size=120,
)
_stream_configs = st.builds(
    IngestConfig,
    n_shards=st.integers(min_value=1, max_value=4),
    queue_capacity=st.integers(min_value=1, max_value=8),
    shed_policy=st.sampled_from([ShedPolicy.DROP, ShedPolicy.DEGRADE]),
    dedup_window=st.integers(min_value=1, max_value=4),
    breaker_threshold=st.integers(min_value=1, max_value=4),
    quarantine_release_ticks=st.sampled_from([2.0, 10.0, 64.0]),
)
_ENVELOPES: dict[tuple[int, int], dict] = {}


def _stream_envelope(device: int, seq: int) -> dict:
    key = (device, seq)
    if key not in _ENVELOPES:
        _ENVELOPES[key] = envelope(seq, device_id=f"device-{device:05d}")
    return _ENVELOPES[key]


class TestLedgerBound:
    @seed(2803)
    @settings(max_examples=150, deadline=None)
    @given(config=_stream_configs, steps=_stream_steps)
    def test_verdicts_and_stats_match_the_unbounded_table(self, config, steps):
        ingest, oracle = FleetIngest(config), _OracleIngest(config)
        tick = 0.0
        for device, seq, kind, step in steps:
            tick += step
            record = _stream_envelope(device, seq)
            if kind != "valid":
                record = _corrupted(record, kind)
            assert ingest.submit(record, tick) == oracle.submit(record, tick)
            assert ingest.stats() == oracle.stats()

    def test_fresh_id_flood_keeps_a_bounded_table(self):
        n_devices = 20_000
        metrics = Metrics()
        ingest = FleetIngest(obs=Observability(metrics=metrics))
        template = _corrupted(envelope(1), "version")
        ingest.submit({**template, "device_id": "warm-up"}, tick=0.0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(n_devices):
                ingest.submit({**template, "device_id": f"flood-{i:05d}"}, tick=float(i))
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert ingest.counts["rejected_malformed"] == n_devices + 1
        assert metrics.gauges["fed_ingest_ledgers"] == PENDING_BREAKERS
        assert metrics.counters["fed_ingest_ledgers_evicted"] == n_devices + 1 - PENDING_BREAKERS
        # One ledger per fresh id held about 10.8 MB at this flood.
        assert growth < 3 * 1024 * 1024, growth

    def test_first_acceptance_starts_a_clean_streak(self):
        metrics = Metrics()
        ingest = FleetIngest(IngestConfig(breaker_threshold=2), obs=Observability(metrics=metrics))
        bad = _corrupted(envelope(1), "checksum")
        assert not ingest.submit(bad, tick=0.0).banned
        assert ingest.submit(envelope(1), tick=1.0).accepted
        assert metrics.gauges["fed_ingest_ledgers"] == 1
        # The streak before acceptance is gone: one more violation is not a ban.
        assert not ingest.submit(bad, tick=2.0).banned
        assert ingest.submit(bad, tick=3.0).banned
