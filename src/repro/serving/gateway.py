"""The online screening gateway: admission, batching, shedding, hot reload.

A deterministic discrete-event model of the serving data plane, driven by
the same logical-tick clock as the rest of the repo (DESIGN.md §6):

- **admission** — arrivals join a bounded queue; when it is full the
  request is *shed* according to policy: ``DROP`` (fail-open, transmitted
  unscreened) or ``DEGRADE`` (screened inline by the keyword baseline,
  the same conservative fallback as
  :meth:`repro.core.flowcontrol.FlowControlApp.degraded`, decision marked
  degraded);
- **batching** — a free matcher pool takes up to ``batch_size`` queued
  requests; a partial batch waits at most ``max_batch_wait_ticks`` for
  company.  Batch service time is ``batch_overhead_ticks +
  per_packet_ticks * len(batch)``, so batching amortizes overhead and the
  queue provides backpressure when arrivals outpace service;
- **screening** — each batch runs on a :class:`~repro.serving.shards.ShardedMatcher`
  whose verdicts are bit-identical to the scalar
  :meth:`SignatureMatcher.match <repro.signatures.matcher.SignatureMatcher.match>`;
- **hot reload** — :class:`ReloadEvent`\\ s carry
  :class:`~repro.signatures.store.SignatureEnvelope`\\ s (the verified
  over-the-wire form from :mod:`repro.core.distribution`).  A reload is an
  atomic swap applied between batches: in-flight batches finish on the
  generation they started with, no batch ever mixes generations, and a
  stale envelope (``set_version`` not newer than the live one) is rejected
  — the same never-regress rule as
  :class:`~repro.core.distribution.SignatureFetcher`.

Every decision is a :class:`ServeResult` carrying the generation that
screened it and the batch that did; the gateway counts into a shared
:class:`~repro.obs.metrics.Metrics` registry: outcome counters and
latency, queue-depth and batch-size histograms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.baselines.keyword import KeywordDetector
from repro.errors import SimulationError
from repro.obs.metrics import Metrics
from repro.serving.loadgen import ScreeningEvent
from repro.serving.shards import ShardedMatcher
from repro.signatures.conjunction import ConjunctionSignature
from repro.signatures.matcher import MatchResult
from repro.signatures.store import SignatureEnvelope


class ShedPolicy(enum.Enum):
    """What to do with an arrival that finds the queue full."""

    DROP = "drop"  # fail open: transmit unscreened
    DEGRADE = "degrade"  # screen inline with the keyword baseline


class ServeOutcome(enum.Enum):
    """How one request left the gateway."""

    CLEAN = "clean"  # screened, no signature fired
    FLAGGED = "flagged"  # screened, a signature fired
    SHED_DROPPED = "shed_dropped"  # queue full, passed through unscreened
    SHED_DEGRADED_CLEAN = "shed_degraded_clean"  # keyword fallback, clean
    SHED_DEGRADED_FLAGGED = "shed_degraded_flagged"  # keyword fallback, flagged


#: The counter each outcome is tallied under.
_DECISION_COUNTERS = {outcome: f"decisions_{outcome.value}" for outcome in ServeOutcome}

#: Latency bucket upper edges, in logical ticks (last is +inf).
LATENCY_BOUNDS: tuple[float, ...] = (
    0.5, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512,
)

#: Queue-depth and batch-size bucket upper edges (last is +inf).
DEPTH_BOUNDS: tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64, 128)


@dataclass(frozen=True, slots=True)
class GatewayConfig:
    """Serving data-plane tuning.

    :param queue_capacity: admission queue bound (arrivals beyond it shed).
    :param batch_size: maximum requests per micro-batch.
    :param n_shards: signature partitions per matcher generation.
    :param shed_policy: overflow behaviour (see :class:`ShedPolicy`).
    :param batch_overhead_ticks: fixed cost of dispatching one batch.
    :param per_packet_ticks: marginal cost per request in a batch.
    :param max_batch_wait_ticks: how long a partial batch may wait for
        more arrivals before it is flushed anyway.
    :param degraded_mode: keyword-detector escalation used when shedding
        with ``DEGRADE`` (the conservative default mirrors
        :meth:`FlowControlApp.degraded <repro.core.flowcontrol.FlowControlApp.degraded>`).
    """

    queue_capacity: int = 64
    batch_size: int = 8
    n_shards: int = 2
    shed_policy: ShedPolicy = ShedPolicy.DEGRADE
    batch_overhead_ticks: float = 1.0
    per_packet_ticks: float = 0.25
    max_batch_wait_ticks: float = 4.0
    degraded_mode: str = "conservative"

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise SimulationError("queue_capacity must be >= 1")
        if self.batch_size < 1:
            raise SimulationError("batch_size must be >= 1")
        if self.n_shards < 1:
            raise SimulationError("n_shards must be >= 1")
        if self.batch_overhead_ticks < 0 or self.per_packet_ticks < 0:
            raise SimulationError("service costs must be non-negative")
        if self.max_batch_wait_ticks < 0:
            raise SimulationError("max_batch_wait_ticks must be non-negative")


@dataclass(frozen=True, slots=True)
class ReloadEvent:
    """A signature-set swap scheduled on the logical clock.

    :param tick: earliest tick the swap may take effect.
    :param envelope: the verified versioned envelope to install.
    """

    tick: float
    envelope: SignatureEnvelope


@dataclass(frozen=True, slots=True)
class ServeResult:
    """The gateway's verdict on one request.

    :param event: the arrival this verdict answers.
    :param outcome: how the request left the gateway.
    :param generation: reload generation of the matcher that screened it
        (generation 1 is the boot set; shed requests carry the generation
        live at their arrival).
    :param set_version: ``set_version`` of that generation's envelope.
    :param match: the exact-match result for screened requests, ``None``
        for shed ones.
    :param completed_tick: when the verdict was produced.
    :param batch_id: which micro-batch screened it (``-1`` for shed).
    """

    event: ScreeningEvent
    outcome: ServeOutcome
    generation: int
    set_version: int
    match: MatchResult | None
    completed_tick: float
    batch_id: int

    @property
    def latency_ticks(self) -> float:
        """Arrival-to-verdict time on the logical clock."""
        return self.completed_tick - self.event.tick

    @property
    def screened(self) -> bool:
        """Whether the full signature matcher produced this verdict."""
        return self.match is not None


class ScreeningGateway:
    """The serving data plane over one boot signature set.

    :param signatures: the generation-1 signature set.
    :param config: data-plane tuning.
    :param metrics: the registry the gateway counts into (a private one
        if omitted).  Its four histograms are registered here, so an
        export lists them before the first event.
    :param set_version: version label of the boot set (as published by
        a :class:`~repro.service.repository.SignatureRepository`).
    :param run_id: observability run id surfaced by
        :meth:`health_snapshot`; a fleet probe pairs it with
        ``uptime_ticks`` to tell a silent restart (ticks reset to zero)
        from a slow gateway (ticks still climbing).
    """

    def __init__(
        self,
        signatures: Sequence[ConjunctionSignature],
        config: GatewayConfig | None = None,
        metrics: Metrics | None = None,
        set_version: int = 1,
        run_id: str = "gateway",
    ) -> None:
        self.config = config or GatewayConfig()
        self.metrics = metrics or Metrics()
        for name in ("latency_ticks", "shed_latency_ticks"):
            self.metrics.histogram(name, LATENCY_BOUNDS)
        for name in ("queue_depth", "batch_size"):
            self.metrics.histogram(name, DEPTH_BOUNDS)
        self.run_id = run_id
        self.generation = 1
        self.set_version = set_version
        self.matcher = ShardedMatcher(signatures, self.config.n_shards)
        self._degraded_detector = KeywordDetector(self.config.degraded_mode)

    # -- reload -------------------------------------------------------------------

    def apply_reload(self, envelope: SignatureEnvelope) -> bool:
        """Atomically swap the live set; reject non-monotonic versions.

        :returns: whether the swap was applied.
        """
        if envelope.set_version <= self.set_version:
            self.metrics.inc("reloads_rejected")
            return False
        self.generation += 1
        self.set_version = envelope.set_version
        self.matcher = ShardedMatcher(list(envelope.signatures), self.config.n_shards)
        self.metrics.inc("reloads_applied")
        return True

    # -- health -------------------------------------------------------------------

    def health_snapshot(self) -> dict[str, object]:
        """A read-only operational summary of the gateway.

        The public surface a health endpoint (or supervisor) should poll
        instead of poking private fields: the live generation and set
        version, admission/shed counters, reload history, and whether any
        degraded (keyword-fallback) decision has been produced.  Keys are
        stable and the snapshot is a pure function of the measurement
        state — calling it never mutates the gateway, so repeated calls
        under load always agree with the registry's counters.
        """
        counters = self.metrics.counters
        depth = self.metrics.histograms["queue_depth"]
        degraded_decisions = counters.get(
            "decisions_shed_degraded_clean", 0
        ) + counters.get("decisions_shed_degraded_flagged", 0)
        return {
            "run_id": self.run_id,
            # Work processed this boot: resets to zero on restart while
            # run_id (seed-derived) stays put — the restart-detection pair.
            "uptime_ticks": counters.get("admitted", 0) + counters.get("shed", 0),
            "generation": self.generation,
            "set_version": self.set_version,
            "n_signatures": len(self.matcher),
            "shed_policy": self.config.shed_policy.value,
            "queue_capacity": self.config.queue_capacity,
            "queue_depth_p50": depth.percentile(0.50),
            "queue_depth_max": depth.max_value,
            "admitted": counters.get("admitted", 0),
            "shed": counters.get("shed", 0),
            "shed_dropped": counters.get("decisions_shed_dropped", 0),
            "shed_degraded": degraded_decisions,
            "batches": counters.get("batches", 0),
            "reloads_applied": counters.get("reloads_applied", 0),
            "reloads_rejected": counters.get("reloads_rejected", 0),
            "degraded": degraded_decisions > 0,
        }

    # -- the event loop -----------------------------------------------------------

    def run(
        self,
        events: Iterable[ScreeningEvent],
        reloads: Iterable[ReloadEvent] = (),
    ) -> list[ServeResult]:
        """Serve one arrival stream to completion.

        :param events: arrivals in non-decreasing tick order (as produced
            by :class:`~repro.serving.loadgen.FleetLoadGenerator`), each
            tick finite.
        :param reloads: scheduled signature swaps; applied between batches
            at the first dispatch at or after their tick.
        :returns: one verdict per arrival, in arrival order.
        :raises SimulationError: for a NaN or infinite tick, or arrivals
            out of tick order; nothing has been served then.
        """
        arrivals = list(events)
        pending_reloads = sorted(reloads, key=lambda r: r.tick)
        infinity = float("inf")
        for event in arrivals:
            # NaN compares false both ways, so the loop below would never
            # admit or dispatch it; an infinite tick never dispatches either.
            if event.tick != event.tick or abs(event.tick) == infinity:
                raise SimulationError(f"arrival tick must be finite, got {event.tick!r}")
        if any(a.tick > b.tick for a, b in zip(arrivals, arrivals[1:])):
            raise SimulationError("arrival stream must be tick-ordered")
        config = self.config
        inc = self.metrics.inc
        histograms = self.metrics.histograms
        observe_depth = histograms["queue_depth"].observe
        observe_latency = histograms["latency_ticks"].observe
        observe_batch_size = histograms["batch_size"].observe
        queue: list[ScreeningEvent] = []
        results: list[ServeResult] = []
        pool_free_at = 0.0
        clock = 0.0
        batch_id = 0
        index = 0
        n = len(arrivals)

        while index < n or queue:
            next_arrival = arrivals[index].tick if index < n else infinity
            if queue:
                if len(queue) >= config.batch_size or index >= n:
                    dispatch_at = max(pool_free_at, clock)
                else:
                    flush_at = queue[0].tick + config.max_batch_wait_ticks
                    dispatch_at = max(pool_free_at, flush_at)
            else:
                dispatch_at = infinity

            if next_arrival <= dispatch_at:
                # Admit (or shed) the next arrival.
                event = arrivals[index]
                index += 1
                clock = max(clock, event.tick)
                observe_depth(len(queue))
                if len(queue) >= config.queue_capacity:
                    results.append(self._shed(event))
                else:
                    queue.append(event)
                continue

            # Dispatch one micro-batch.
            clock = max(clock, dispatch_at)
            while pending_reloads and pending_reloads[0].tick <= clock:
                self.apply_reload(pending_reloads.pop(0).envelope)
            batch = queue[: config.batch_size]
            del queue[: config.batch_size]
            started = clock
            finished = (
                started
                + config.batch_overhead_ticks
                + config.per_packet_ticks * len(batch)
            )
            matches = self.matcher.match_batch([event.packet for event in batch])
            flagged = 0
            for event, match in zip(batch, matches):
                outcome = ServeOutcome.FLAGGED if match.matched else ServeOutcome.CLEAN
                flagged += match.matched
                result = ServeResult(
                    event=event,
                    outcome=outcome,
                    generation=self.generation,
                    set_version=self.set_version,
                    match=match,
                    completed_tick=finished,
                    batch_id=batch_id,
                )
                results.append(result)
                observe_latency(result.latency_ticks)
            # Every admitted arrival is dispatched in exactly one batch.
            inc("admitted", len(batch))
            if flagged:
                inc(_DECISION_COUNTERS[ServeOutcome.FLAGGED], flagged)
            if flagged < len(batch):
                inc(_DECISION_COUNTERS[ServeOutcome.CLEAN], len(batch) - flagged)
            inc("batches")
            observe_batch_size(len(batch))
            batch_id += 1
            pool_free_at = finished
            clock = max(clock, started)

        # Any reloads scheduled after the last batch still apply (so a
        # subsequent run() continues from the newest published set).
        for reload in pending_reloads:
            self.apply_reload(reload.envelope)

        results.sort(key=lambda result: result.event.seq)
        return results

    # -- shedding -----------------------------------------------------------------

    def _shed(self, event: ScreeningEvent) -> ServeResult:
        """Apply the overflow policy to one rejected arrival."""
        if self.config.shed_policy is ShedPolicy.DROP:
            outcome = ServeOutcome.SHED_DROPPED
        elif self._degraded_detector.is_sensitive(event.packet):
            outcome = ServeOutcome.SHED_DEGRADED_FLAGGED
        else:
            outcome = ServeOutcome.SHED_DEGRADED_CLEAN
        self.metrics.inc("shed")
        self.metrics.inc(_DECISION_COUNTERS[outcome])
        self.metrics.histograms["shed_latency_ticks"].observe(0.0)
        return ServeResult(
            event=event,
            outcome=outcome,
            generation=self.generation,
            set_version=self.set_version,
            match=None,
            completed_tick=event.tick,
            batch_id=-1,
        )
