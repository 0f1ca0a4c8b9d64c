"""The server -> device signature distribution path, made unreliable.

The paper's Fig 3 draws an arrow from the signature-generation server to
the on-device flow-control application and says nothing about what happens
when that arrow fails.  At crowd scale it fails constantly, so this module
models the device end of the arrow explicitly.  The server end is a
:class:`~repro.service.repository.SignatureRepository`:
:meth:`~repro.service.repository.SignatureRepository.publish` stores a
signature set as the next versioned, checksummed envelope.

:class:`SignatureFetcher` reads the repository's newest envelope through
an optional :class:`~repro.reliability.faults.FaultPlan` (serving the
previous version for ``STALE`` faults), retries under a
:class:`~repro.reliability.retry.RetryPolicy` and an optional
:class:`~repro.reliability.retry.CircuitBreaker`, verifies the envelope
checksum and version, falls back to the last-known-good set on an
exhausted budget, and counts every event into a
:class:`~repro.obs.metrics.Metrics` registry.

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
from typing import TYPE_CHECKING

from repro.errors import SignatureStoreError
from repro.obs.metrics import Metrics
from repro.reliability.faults import FaultKind, FaultPlan
from repro.reliability.retry import CircuitBreaker, RetryPolicy
from repro.signatures.conjunction import ConjunctionSignature
from repro.signatures.store import SignatureEnvelope, SignatureStore
from repro.simulation.rng import derive_rng

if TYPE_CHECKING:
    from repro.service.repository import SignatureRepository


class FetchStatus(enum.Enum):
    """How a fetch session ended."""

    FRESH = "fresh"  # a verified envelope arrived this session
    CACHED = "cached"  # transfers failed; last-known-good set returned
    DEGRADED = "degraded"  # no valid set has ever been fetched


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


class SignatureFetcher:
    """Device-side fetch loop with verification and graceful fallback.

    :param source: the repository whose newest envelope each attempt reads.
    :param faults: the transport's failure behaviour; ``None`` for a
        perfect transport.  Its outcomes are seeded by its own call
        counter, so fetchers meant to share one fault stream share the
        plan object.
    :param retry: per-session attempt budget and backoff shape.
    :param breaker: optional circuit breaker shared across sessions; when
        open, sessions fail fast without reading the source.
    :param seed: determinism root for backoff jitter.
    :param device_id: label isolating this device's fault/jitter streams.
    :param metrics: the registry the fetcher counts into (a private one
        if omitted): ``fetch_*`` counters for sessions, attempts, retries,
        failures and per-status outcomes, and the
        ``fetch_last_good_version`` gauge.
    """

    def __init__(
        self,
        source: SignatureRepository,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        seed: int = 0,
        device_id: str = "device",
        metrics: Metrics | None = None,
    ) -> None:
        self.source = source
        self.faults = faults
        self.retry = retry or RetryPolicy()
        self.breaker = breaker
        self.seed = seed
        self.device_id = device_id
        self.metrics = metrics or Metrics()
        self.clock = 0.0  # logical ticks; advanced per attempt + backoff
        self.sessions = 0  # seeds each session's backoff jitter
        self._last_good: tuple[int, tuple[ConjunctionSignature, ...]] | None = None

    def fetch(self) -> FetchResult:
        """Run one fetch session: retry, verify, fall back.

        Never raises for transport trouble — every failure mode folds into
        the returned :class:`FetchResult` so the device keeps screening.
        """
        inc = self.metrics.inc
        self.sessions += 1
        inc("fetch_sessions")
        rng = derive_rng(self.seed, "fetch", self.device_id, str(self.sessions))
        attempts = 0
        for attempt in range(self.retry.max_attempts):
            self.clock += 1.0
            if self.breaker is not None and not self.breaker.allow(self.clock):
                inc("fetch_breaker_rejections")
                break
            if attempt > 0:
                inc("fetch_retries")
            envelope = self._attempt(attempts)
            attempts += 1
            if envelope is not None:
                if self.breaker is not None:
                    self.breaker.record_success()
                self._last_good = (envelope.set_version, envelope.signatures)
                inc("fetch_fresh")
                self.metrics.set_gauge("fetch_last_good_version", envelope.set_version)
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
        if self._last_good is not None:
            inc("fetch_cached")
            version, signatures = self._last_good
            return FetchResult(
                status=FetchStatus.CACHED,
                signatures=signatures,
                set_version=version,
                attempts=attempts,
            )
        inc("fetch_degraded")
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
        inc = self.metrics.inc
        inc("fetch_attempts")
        payload = self._transmit(attempt_index)
        if payload is None:
            inc("fetch_drops")
            return None
        try:
            envelope = SignatureStore.loads_envelope(payload.decode("utf-8", errors="replace"))
        except SignatureStoreError:
            inc("fetch_integrity_failures")
            return None
        if self._last_good is not None and envelope.set_version < self._last_good[0]:
            # A cache served an older version than we already verified:
            # never regress the installed set.
            inc("fetch_stale_reads")
            return None
        return envelope

    def _transmit(self, attempt_index: int) -> bytes | None:
        """The source's newest envelope through the fault plan; ``None`` for a drop.

        An empty source counts as a drop and consumes no fault draw.
        """
        found = self.source.latest()
        if found is None:
            return None
        self.metrics.inc("channel_transmits")
        document, envelope = found
        payload = document.encode("utf-8")
        if self.faults is None:
            return payload
        outcome = self.faults.apply(payload, self.device_id, str(attempt_index))
        self.clock += outcome.delay_ticks
        if outcome.kind is FaultKind.STALE:
            # A misbehaving cache serves the previous version, intact.
            previous = self.source.get(envelope.set_version - 1)
            if previous is not None:
                return previous[0].encode("utf-8")
        return outcome.payload
