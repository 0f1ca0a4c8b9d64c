"""The server -> device signature distribution channel, made unreliable.

The paper's Fig 3 draws an arrow from the signature-generation server to
the on-device flow-control application and says nothing about what happens
when that arrow fails.  At crowd scale it fails constantly, so this module
models the arrow explicitly:

- :class:`SignatureChannel` — the server side.  ``publish()`` wraps a
  signature set in a versioned, checksummed envelope
  (:meth:`repro.signatures.store.SignatureStore.dumps_envelope`);
  ``transmit()`` pushes the latest envelope through an optional
  :class:`~repro.reliability.faults.FaultPlan`, substituting an older
  version for ``STALE`` faults.
- :class:`SignatureFetcher` — the device side.  ``fetch()`` retries through
  the faults under a :class:`~repro.reliability.retry.RetryPolicy` and an
  optional :class:`~repro.reliability.retry.CircuitBreaker`, verifies the
  envelope checksum and version, falls back to the last-known-good set on
  an exhausted budget, and keeps :class:`ChannelHealth` counters.

A fetch can therefore end three ways, in order of preference: ``FRESH``
(a verified envelope arrived), ``CACHED`` (transfers failed; the device
screens with its last-known-good set), or ``DEGRADED`` (no valid set was
*ever* fetched; the device falls back to the keyword baseline — see
:meth:`repro.core.flowcontrol.FlowControlApp.screen`).

Everything is deterministic: faults and jitter derive from explicit seeds
and time is a logical tick counter (DESIGN.md §6).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import DistributionError, SignatureStoreError
from repro.obs.metrics import Metrics
from repro.reliability.faults import FaultKind, FaultPlan
from repro.reliability.retry import BreakerState, CircuitBreaker, RetryPolicy
from repro.signatures.conjunction import ConjunctionSignature
from repro.signatures.store import SignatureEnvelope, SignatureStore
from repro.simulation.rng import derive_rng


class SignatureChannel:
    """Server-side publication point plus the (simulated) transport.

    :param fault_plan: the channel's failure behaviour; ``None`` for a
        perfect channel (the pre-reliability in-memory handoff).
    :param metrics: optional shared registry; the channel then counts
        publishes, transmissions, and per-fault-kind outcomes.
    """

    def __init__(
        self, fault_plan: FaultPlan | None = None, metrics: Metrics | None = None
    ) -> None:
        self.fault_plan = fault_plan
        self.metrics = metrics
        self._envelopes: list[str] = []  # serialized; index + 1 == set_version

    def _inc(self, name: str, by: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, by)

    def publish(self, signatures: list[ConjunctionSignature]) -> SignatureEnvelope:
        """Wrap and retain a new signature-set version for distribution."""
        set_version = len(self._envelopes) + 1
        document = SignatureStore.dumps_envelope(signatures, set_version)
        self._envelopes.append(document)
        self._inc("channel_publishes")
        if self.metrics is not None:
            self.metrics.set_gauge("channel_latest_version", set_version)
        return SignatureStore.loads_envelope(document)

    @property
    def latest_version(self) -> int:
        """The newest published ``set_version`` (0 when nothing published)."""
        return len(self._envelopes)

    def envelope(self, set_version: int) -> SignatureEnvelope:
        """The parsed envelope of one published version.

        Lets a serving gateway build hot-reload schedules from the
        channel's publication history (and tests fetch a known-stale
        version to assert never-regress behaviour).

        :raises DistributionError: for an unpublished version.
        """
        if not 1 <= set_version <= len(self._envelopes):
            raise DistributionError(
                f"version {set_version} not published (have 1..{len(self._envelopes)})"
            )
        return SignatureStore.loads_envelope(self._envelopes[set_version - 1])

    def transmit(self, *labels: str) -> tuple[bytes | None, FaultKind, float]:
        """One delivery attempt of the latest envelope.

        :param labels: fault-derivation labels (e.g. the fetching device's
            id) keeping concurrent fetchers' fault streams independent.
        :returns: ``(payload, fault_kind, delay_ticks)``; ``payload`` is
            ``None`` for a drop.
        :raises DistributionError: when nothing has been published.
        """
        if not self._envelopes:
            raise DistributionError("nothing published on this channel yet")
        self._inc("channel_transmits")
        payload = self._envelopes[-1].encode("utf-8")
        if self.fault_plan is None:
            return payload, FaultKind.NONE, 0.0
        outcome = self.fault_plan.apply(payload, *labels)
        if outcome.kind is not FaultKind.NONE:
            self._inc(f"channel_fault_{outcome.kind.value}")
        if outcome.kind is FaultKind.STALE and len(self._envelopes) > 1:
            # A misbehaving cache serves the previous version, intact.
            return self._envelopes[-2].encode("utf-8"), outcome.kind, outcome.delay_ticks
        return outcome.payload, outcome.kind, outcome.delay_ticks


class FetchStatus(enum.Enum):
    """How a fetch session ended."""

    FRESH = "fresh"  # a verified envelope arrived this session
    CACHED = "cached"  # transfers failed; last-known-good set returned
    DEGRADED = "degraded"  # no valid set has ever been fetched


@dataclass(slots=True)
class ChannelHealth:
    """Cumulative device-side view of the channel, for ops dashboards.

    ``attempts`` counts individual transmissions; ``fetches`` counts
    sessions (one :meth:`SignatureFetcher.fetch` call each).
    """

    fetches: int = 0
    attempts: int = 0
    successes: int = 0
    drops: int = 0
    integrity_failures: int = 0
    stale_reads: int = 0
    breaker_rejections: int = 0
    fallbacks: int = 0
    degraded_sessions: int = 0
    delay_ticks: float = 0.0
    last_good_version: int = 0
    breaker_state: str = BreakerState.CLOSED.value


@dataclass(frozen=True, slots=True)
class FetchResult:
    """The outcome of one fetch session.

    :param status: how the session ended (see :class:`FetchStatus`).
    :param signatures: the set the device should screen with — fresh,
        last-known-good, or empty when degraded.
    :param set_version: version of ``signatures`` (0 when degraded).
    :param attempts: transmissions consumed this session.
    """

    status: FetchStatus
    signatures: tuple[ConjunctionSignature, ...]
    set_version: int
    attempts: int

    @property
    def ok(self) -> bool:
        """Whether the device holds *some* usable signature set."""
        return self.status is not FetchStatus.DEGRADED


class SignatureFetcher:
    """Device-side fetch loop with verification and graceful fallback.

    :param channel: the distribution channel to pull from.
    :param retry: per-session attempt budget and backoff shape.
    :param breaker: optional circuit breaker shared across sessions; when
        open, sessions fail fast without consuming channel attempts.
    :param seed: determinism root for backoff jitter.
    :param device_id: label isolating this device's fault/jitter streams.
    :param metrics: optional shared registry mirroring
        :class:`ChannelHealth` as monotonic counters (sessions, attempts,
        retries, per-status outcomes) for the Prometheus exposition.
    """

    def __init__(
        self,
        channel: SignatureChannel,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        seed: int = 0,
        device_id: str = "device",
        metrics: Metrics | None = None,
    ) -> None:
        self.channel = channel
        self.retry = retry or RetryPolicy()
        self.breaker = breaker
        self.seed = seed
        self.device_id = device_id
        self.metrics = metrics
        self.health = ChannelHealth()
        self.clock = 0.0  # logical ticks; advanced per attempt + backoff
        self._last_good: tuple[int, tuple[ConjunctionSignature, ...]] | None = None

    def _inc(self, name: str, by: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, by)

    def fetch(self) -> FetchResult:
        """Run one fetch session: retry, verify, fall back.

        Never raises for channel trouble — every failure mode folds into
        the returned :class:`FetchResult` so the device keeps screening.
        """
        self.health.fetches += 1
        self._inc("fetch_sessions")
        session = self.health.fetches
        rng = derive_rng(self.seed, "fetch", self.device_id, str(session))
        attempts = 0
        for attempt in range(self.retry.max_attempts):
            self.clock += 1.0
            if self.breaker is not None and not self.breaker.allow(self.clock):
                self.health.breaker_rejections += 1
                self._inc("fetch_breaker_rejections")
                break
            if attempt > 0:
                self._inc("fetch_retries")
            envelope = self._attempt(attempts)
            attempts += 1
            if envelope is not None:
                if self.breaker is not None:
                    self.breaker.record_success()
                self._last_good = (envelope.set_version, envelope.signatures)
                self.health.successes += 1
                self.health.last_good_version = envelope.set_version
                self._note_breaker_state()
                self._inc("fetch_fresh")
                if self.metrics is not None:
                    self.metrics.set_gauge(
                        "fetch_last_good_version", envelope.set_version
                    )
                return FetchResult(
                    status=FetchStatus.FRESH,
                    signatures=envelope.signatures,
                    set_version=envelope.set_version,
                    attempts=attempts,
                )
            if self.breaker is not None:
                self.breaker.record_failure(self.clock)
            if attempt < self.retry.max_attempts - 1:
                self.clock += self.retry.backoff(attempt, rng)
        self._note_breaker_state()
        if self._last_good is not None:
            self.health.fallbacks += 1
            self._inc("fetch_cached")
            version, signatures = self._last_good
            return FetchResult(
                status=FetchStatus.CACHED,
                signatures=signatures,
                set_version=version,
                attempts=attempts,
            )
        self.health.degraded_sessions += 1
        self._inc("fetch_degraded")
        return FetchResult(
            status=FetchStatus.DEGRADED, signatures=(), set_version=0, attempts=attempts
        )

    def fetch_into(self, app) -> FetchResult:
        """Fetch and install the result into a
        :class:`~repro.core.flowcontrol.FlowControlApp`.

        A ``DEGRADED`` result installs the empty set, which flips the app
        into its keyword-baseline degraded screening mode (if configured).
        """
        result = self.fetch()
        app.update_signatures(list(result.signatures), version=result.set_version)
        return result

    # -- internals ---------------------------------------------------------------

    def _attempt(self, attempt_index: int) -> SignatureEnvelope | None:
        """One transmission + verification; ``None`` on any failure."""
        self.health.attempts += 1
        self._inc("fetch_attempts")
        try:
            payload, kind, delay = self.channel.transmit(self.device_id, str(attempt_index))
        except DistributionError:
            self.health.drops += 1
            self._inc("fetch_drops")
            return None
        self.clock += delay
        self.health.delay_ticks += delay
        if payload is None:
            self.health.drops += 1
            self._inc("fetch_drops")
            return None
        try:
            envelope = SignatureStore.loads_envelope(payload.decode("utf-8", errors="replace"))
        except SignatureStoreError:
            self.health.integrity_failures += 1
            self._inc("fetch_integrity_failures")
            return None
        if self._last_good is not None and envelope.set_version < self._last_good[0]:
            # A cache served an older version than we already verified:
            # never regress the installed set.
            self.health.stale_reads += 1
            self._inc("fetch_stale_reads")
            return None
        return envelope

    def _note_breaker_state(self) -> None:
        if self.breaker is not None:
            self.health.breaker_state = self.breaker.state(self.clock).value
