"""Sharded, validating, replay-proof admission of fleet reports.

:class:`FleetIngest` is the server's front door for crowdsourced reports.
Every submitted envelope runs the same gauntlet, in order:

1. **quarantine check** — reports from a banned device are refused
   outright (cheapest rejection first).  Bans come from a per-device
   :class:`~repro.reliability.retry.CircuitBreaker` tripping on protocol
   violations and are released after a cooldown
   (:class:`~repro.reliability.quarantine.Quarantine` with
   ``release_after_ticks``), so a transiently buggy device is re-admitted
   — and re-tripped just as fast if it keeps misbehaving;
2. **bounded admission** — each shard models a bounded service queue on
   the logical clock; an arrival that finds its shard's queue full is
   *shed* per policy, mirroring the serving gateway: ``DROP`` refuses the
   report (a retryable NACK — ingest fails *closed*, unlike the screening
   gateway's fail-open drop, because aggregation correctness beats
   availability), ``DEGRADE`` validates inline at a higher tick cost,
   bypassing the queue;
3. **validation** — schema, protocol version, and SHA-256 checksum
   (:func:`~repro.federation.report.decode_report`); every failure is a
   counted, typed rejection, never an exception out of the batch;
4. **replay defense** — per-device monotonic sequence numbers with a
   bounded dedup window: a sequence number at or below the device's high
   watermark is rejected as ``DUPLICATE`` (still inside the window — an
   at-least-once transport re-delivering) or ``REPLAY`` (behind the
   window — someone re-sending history).

Shard assignment hashes the device id, so one device's reports always
land on one shard and the per-device ledger never needs cross-shard
coordination.  A device gets its ledger with its first accepted report;
until then only its violation streak is kept, in an LRU of
:data:`PENDING_BREAKERS` entries, so a flood of bad reports from fresh
device ids holds a bounded amount of memory.  All decisions are pure
functions of the submitted stream and the logical clock — no wall time,
no global RNG — which is what lets the federation chaos sweep demand
bit-identical outcomes under faults.
"""

from __future__ import annotations

import enum
import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.errors import FederationError, ReportValidationError
from repro.federation.report import DeviceReport, decode_report
from repro.obs import NULL_OBS, Observability
from repro.reliability.quarantine import Quarantine
from repro.reliability.retry import BreakerState, CircuitBreaker
from repro.serving.gateway import ShedPolicy

#: Violation streaks kept for devices with no accepted report; the least
#: recently punished is forgotten first (``fed_ingest_ledgers_evicted``).
PENDING_BREAKERS = 4096


class ReportStatus(enum.Enum):
    """How one submitted envelope left the ingest layer."""

    ACCEPTED = "accepted"
    REJECTED_MALFORMED = "rejected_malformed"
    REJECTED_DUPLICATE = "rejected_duplicate"
    REJECTED_REPLAY = "rejected_replay"
    REJECTED_QUARANTINED = "rejected_quarantined"
    SHED_DROPPED = "shed_dropped"

    @property
    def retryable(self) -> bool:
        """Whether an honest sender should re-send this envelope later."""
        return self in (ReportStatus.SHED_DROPPED, ReportStatus.REJECTED_QUARANTINED)


@dataclass(frozen=True, slots=True)
class IngestConfig:
    """Ingest tuning.

    :param n_shards: device-hash partitions of the admission plane.
    :param queue_capacity: per-shard backlog bound (arrivals beyond it shed).
    :param shed_policy: overflow behaviour (``DROP`` = retryable NACK,
        ``DEGRADE`` = inline slow-path validation).
    :param dedup_window: per-device recent-sequence-number window; numbers
        at or below the high watermark but inside the window reject as
        duplicates, behind it as replays.
    :param breaker_threshold: consecutive protocol violations that
        quarantine a device.
    :param quarantine_release_ticks: ban cooldown; the device is
        re-admitted afterwards (and re-banned on its next violation streak).
    :param per_report_ticks: shard service cost per admitted report.
    :param degraded_report_ticks: inline service cost of one DEGRADE-shed
        report (deliberately worse than the batched path).
    """

    n_shards: int = 4
    queue_capacity: int = 64
    shed_policy: ShedPolicy = ShedPolicy.DEGRADE
    dedup_window: int = 128
    breaker_threshold: int = 4
    quarantine_release_ticks: float = 64.0
    per_report_ticks: float = 0.25
    degraded_report_ticks: float = 1.0

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise FederationError("n_shards must be >= 1")
        if self.queue_capacity < 1:
            raise FederationError("queue_capacity must be >= 1")
        if self.dedup_window < 1:
            raise FederationError("dedup_window must be >= 1")
        if self.breaker_threshold < 1:
            raise FederationError("breaker_threshold must be >= 1")
        if self.quarantine_release_ticks <= 0:
            raise FederationError("quarantine_release_ticks must be positive")
        if self.per_report_ticks < 0 or self.degraded_report_ticks < 0:
            raise FederationError("service costs must be non-negative")


@dataclass(frozen=True, slots=True)
class SubmitResult:
    """One envelope's verdict.

    :param status: how the envelope left ingest.
    :param report: the validated report for ``ACCEPTED``, else ``None``.
    :param degraded: whether the DEGRADE slow path produced this verdict.
    :param reason: validation-failure category for ``REJECTED_MALFORMED``.
    :param shard: which shard handled (or shed) the envelope.
    :param banned: whether *this* submission tripped the device's breaker
        into quarantine — the signal an incident recorder wants, distinct
        from ``REJECTED_QUARANTINED`` (which marks already-banned devices).
    """

    status: ReportStatus
    report: DeviceReport | None = None
    degraded: bool = False
    reason: str = ""
    shard: int = -1
    banned: bool = False

    @property
    def accepted(self) -> bool:
        return self.status is ReportStatus.ACCEPTED


@dataclass(slots=True)
class _DeviceLedger:
    """Per-device replay-defense and health state."""

    high_watermark: int = 0
    window: list[int] = field(default_factory=list)
    window_set: set[int] = field(default_factory=set)
    breaker: CircuitBreaker | None = None

    def remember(self, seq: int, capacity: int) -> None:
        self.window.append(seq)
        self.window_set.add(seq)
        if len(self.window) > capacity:
            self.window_set.discard(self.window.pop(0))


def shard_for(device_id: str, n_shards: int) -> int:
    """Stable device -> shard assignment (first 8 checksum hex digits)."""
    digest = hashlib.sha256(device_id.encode("utf-8")).hexdigest()
    return int(digest[:8], 16) % n_shards


class FleetIngest:
    """The validating admission plane over a sharded logical-clock model.

    :param config: ingest tuning.
    :param obs: optional observability bundle; counters are emitted under
        the ``fed_ingest_*`` prefix, one gauge tracks quarantined devices
        and ``fed_ingest_ledgers`` the ledgers and pending streaks held.
    """

    def __init__(self, config: IngestConfig | None = None, obs: Observability | None = None) -> None:
        self.config = config or IngestConfig()
        self.obs = obs or NULL_OBS
        self.quarantine = Quarantine(
            release_after_ticks=self.config.quarantine_release_ticks
        )
        self._ledgers: dict[str, _DeviceLedger] = {}
        self._pending: OrderedDict[str, CircuitBreaker] = OrderedDict()
        self._shard_busy_until: list[float] = [0.0] * self.config.n_shards
        self.counts: dict[str, int] = {status.value: 0 for status in ReportStatus}
        self.counts["shed_degraded"] = 0
        self.rejection_reasons: dict[str, int] = {}
        self.accepted_total = 0
        self.submitted_total = 0

    # -- internals ----------------------------------------------------------------

    def _new_breaker(self) -> CircuitBreaker:
        return CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            cooldown=self.config.quarantine_release_ticks,
        )

    def _breaker(self, device_id: str) -> CircuitBreaker:
        """The device's violation streak, made on its first violation."""
        ledger = self._ledgers.get(device_id)
        if ledger is None:  # no accepted report yet: an LRU entry
            breaker = self._pending.pop(device_id, None) or self._new_breaker()
            self._pending[device_id] = breaker
            if len(self._pending) > PENDING_BREAKERS:
                self._pending.popitem(last=False)
                self.obs.inc("fed_ingest_ledgers_evicted")
            self._gauge_ledgers()
            return breaker
        if ledger.breaker is None:
            ledger.breaker = self._new_breaker()
        return ledger.breaker

    def _gauge_ledgers(self) -> None:
        self.obs.set_gauge("fed_ingest_ledgers", len(self._ledgers) + len(self._pending))

    def _shard_backlog(self, shard: int, tick: float) -> int:
        """Reports queued on ``shard`` but not yet served at ``tick``."""
        lag = self._shard_busy_until[shard] - tick
        if lag <= 0:
            return 0
        return math.ceil(lag / self.config.per_report_ticks) if self.config.per_report_ticks else 0

    def _punish(
        self, device_id: str, error: ReportValidationError | None, tick: float, reason: str
    ) -> bool:
        """One protocol violation: extend the streak, maybe quarantine.

        :returns: whether this violation tripped the device into a ban.
        """
        breaker = self._breaker(device_id)
        breaker.record_failure(tick)
        if breaker.state(tick) is not BreakerState.OPEN:
            return False
        self.quarantine.ban(
            device_id,
            tick,
            error=error or ReportValidationError(f"violation streak: {reason}", reason=reason),
            reason=reason,
        )
        # The ban owns the cooldown clock from here; a reset breaker means
        # re-admission starts with a clean streak (and re-trips after
        # another `breaker_threshold` violations, not one).
        breaker.record_success()
        self.obs.inc("fed_ingest_quarantine_bans")
        return True

    def _count(self, status: ReportStatus, degraded: bool) -> None:
        self.counts[status.value] += 1
        if degraded:
            self.counts["shed_degraded"] += 1
        self.obs.inc(f"fed_ingest_{status.value}")
        if degraded:
            self.obs.inc("fed_ingest_shed_degraded")

    # -- the admission gauntlet ----------------------------------------------------

    def submit(self, record: Any, tick: float) -> SubmitResult:
        """Run one envelope through quarantine, admission, validation, dedup.

        :param record: the wire envelope (any JSON-decoded value; garbage
            is handled, not raised).
        :param tick: logical arrival time (non-decreasing across calls).
        :returns: the verdict; ``report`` carries the validated
            :class:`~repro.federation.report.DeviceReport` on acceptance.
        """
        self.submitted_total += 1
        claimed_device = record.get("device_id") if isinstance(record, dict) else None
        device_id = claimed_device if isinstance(claimed_device, str) and claimed_device else ""
        shard = shard_for(device_id, self.config.n_shards)

        # 1. Banned devices are refused before any work is spent on them.
        if device_id and self.quarantine.is_banned(device_id, tick):
            self._count(ReportStatus.REJECTED_QUARANTINED, degraded=False)
            return SubmitResult(status=ReportStatus.REJECTED_QUARANTINED, shard=shard)
        self.obs.set_gauge(
            "fed_ingest_quarantined_devices", len(self.quarantine.banned_members(tick))
        )

        # 2. Bounded admission: shed when the shard's queue is full.
        degraded = False
        backlog = self._shard_backlog(shard, tick)
        self.obs.observe("fed_ingest_backlog", backlog)
        if backlog >= self.config.queue_capacity:
            if self.config.shed_policy is ShedPolicy.DROP:
                self._count(ReportStatus.SHED_DROPPED, degraded=False)
                return SubmitResult(status=ReportStatus.SHED_DROPPED, shard=shard)
            degraded = True  # DEGRADE: validate inline, off the queue.

        # 3. Validation (schema + version + checksum + packet parse).
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

        # 4. Replay defense: monotonic sequence + bounded dedup window.
        ledger = self._ledgers.get(report.device_id)
        if ledger is not None and report.seq <= ledger.high_watermark:
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

        # Accepted: advance the ledger and charge the service cost.  A first
        # acceptance drops the pending streak, as `record_success` would reset it.
        if ledger is None:
            ledger = self._ledgers[report.device_id] = _DeviceLedger()
            self._pending.pop(report.device_id, None)
            self._gauge_ledgers()
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

    # -- health -------------------------------------------------------------------

    def devices_seen(self) -> int:
        """Devices with at least one accepted report."""
        return len(self._ledgers)

    def stats(self) -> dict[str, Any]:
        """Counter snapshot for reports and tests (stable key order)."""
        return {
            "submitted": self.submitted_total,
            "accepted": self.accepted_total,
            "devices_seen": self.devices_seen(),
            "counts": dict(sorted(self.counts.items())),
            "rejection_reasons": dict(sorted(self.rejection_reasons.items())),
            "quarantine": {
                "bans": self.quarantine.bans,
                "releases": self.quarantine.releases,
                "reasons": self.quarantine.summary(),
            },
        }
