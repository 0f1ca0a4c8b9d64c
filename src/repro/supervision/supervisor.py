"""Restart-with-resume supervision over the checkpointed pipeline.

A :class:`Supervisor` wraps a checkpointed
:class:`~repro.core.pipeline.DetectionPipeline` with the reliability
primitives the distribution layer already uses: each crash trips the
:class:`~repro.reliability.retry.CircuitBreaker`'s failure streak; a
tripped breaker forces the supervisor to wait out the cooldown
(on the logical tick clock) before the next attempt probes the circuit
half-open.  Every restart resumes — completed stages replay from the
checkpoint store, so attempt *k* only re-executes what attempt *k-1* left
unfinished, and the final outputs are bit-identical to a crash-free run.

Time is logical throughout: ticks advance by one per attempt and by the
breaker cooldown when the circuit is open, so a supervision session
replays exactly for a seed (DESIGN.md §6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import SupervisionError
from repro.obs import NULL_OBS, Observability
from repro.reliability.retry import CircuitBreaker
from repro.supervision.crash import InjectedCrash

if TYPE_CHECKING:
    from repro.core.pipeline import DetectionPipeline, PipelineResult


@dataclass(slots=True)
class SupervisedResult:
    """A supervised run's outputs plus its recovery ledger.

    :param result: the final :class:`~repro.core.pipeline.PipelineResult`.
    :param attempts: total pipeline attempts (1 = crash-free).
    :param restarts: crashes absorbed (``attempts - 1``).
    :param recovered: whether any crash had to be recovered from.
    :param crashes: stages whose boundary each crash fired at, in order.
    :param ticks: logical ticks the supervision session consumed.
    """

    result: PipelineResult
    attempts: int
    restarts: int
    recovered: bool
    crashes: list[str]
    ticks: float


class Supervisor:
    """Runs a checkpointed pipeline to completion across injected crashes.

    :param pipeline: the pipeline to supervise; it must have a store.
    :param breaker: circuit breaker guarding restarts; the default trips
        after 3 consecutive crashes and cools down for 16 ticks.
    :param max_restarts: crash budget before the supervisor gives up.
    :param obs: optional observability bundle; each attempt emits a
        ``supervisor_attempt`` span and recovery counters
        (``supervisor_restarts``, ``supervisor_breaker_waits``).
    :raises SupervisionError: for a negative budget or a pipeline
        without a checkpoint store.
    """

    def __init__(
        self,
        pipeline: DetectionPipeline,
        *,
        breaker: CircuitBreaker | None = None,
        max_restarts: int = 8,
        obs: Observability | None = None,
    ) -> None:
        if max_restarts < 0:
            raise SupervisionError(f"max_restarts must be >= 0, got {max_restarts}")
        if pipeline.store is None:
            raise SupervisionError("a supervised pipeline needs a checkpoint store")
        self.pipeline = pipeline
        self.breaker = breaker or CircuitBreaker(failure_threshold=3, cooldown=16.0)
        self.max_restarts = max_restarts
        self.obs = obs or NULL_OBS
        self._tick = 0.0

    @property
    def tick(self) -> float:
        """The supervisor's logical clock."""
        return self._tick

    def run(self, n_sample: int, seed: int = 0) -> SupervisedResult:
        """Drive the pipeline to a result, resuming after every crash.

        :raises SupervisionError: when the restart budget is exhausted
            with the run still crashing.
        """
        crashes: list[str] = []
        for attempt in range(1, self.max_restarts + 2):
            if not self.breaker.allow(self._tick):
                # Circuit is open: wait out the remaining cooldown on the
                # logical clock, then the next allow() admits the probe.
                self._tick += self.breaker.cooldown
                self.obs.inc("supervisor_breaker_waits")
                self.breaker.allow(self._tick)
            self._tick += 1.0
            try:
                with self.obs.span(
                    "supervisor_attempt", track="supervision", attempt=attempt
                ):
                    result = self.pipeline.run(n_sample, seed=seed)
            except InjectedCrash as crash:
                crashes.append(crash.stage)
                self.breaker.record_failure(self._tick)
                self.obs.inc("supervisor_restarts")
                continue
            self.breaker.record_success()
            self.obs.inc("supervisor_completions")
            return SupervisedResult(
                result=result,
                attempts=attempt,
                restarts=attempt - 1,
                recovered=attempt > 1,
                crashes=crashes,
                ticks=self._tick,
            )
        self.obs.inc("supervisor_giveups")
        raise SupervisionError(
            f"pipeline still crashing after {self.max_restarts} restarts "
            f"(crash points: {crashes})"
        )

    def health(self) -> dict[str, Any]:
        """A point-in-time health snapshot for operators and tests."""
        return {
            "breaker_state": self.breaker.state(self._tick).value,
            "consecutive_failures": self.breaker.consecutive_failures,
            "trips": self.breaker.trips,
            "tick": self._tick,
            "checkpointed_stages": self.pipeline.store.stages,
        }
