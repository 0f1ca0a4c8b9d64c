"""Seeded inter-stage crash injection for the checkpointed pipeline.

A :class:`CrashPlan` kills a staged run *between* stages — after a stage's
output has been checkpointed, before the next stage starts — which is
exactly the window where checkpointing must prove itself: everything the
journal holds survives, everything downstream is recomputed on resume.

Crash points are either explicit (``crash_after=("linkage",)``) or drawn
at a seeded rate per executed stage boundary.  Every point fires **once**
per plan instance: a supervisor restarting with the same plan sails past
the boundary that killed the previous attempt, so a finite crash list
always terminates.  Replayed (checkpoint-served) stages never consult the
plan — a resumed run only faces crashes at boundaries it actually
executes, mirroring a real fault that lives in the work, not the journal.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.errors import SupervisionError
from repro.simulation.rng import derive_rng


class InjectedCrash(SupervisionError):
    """The run was killed between stages by a :class:`CrashPlan`.

    :param stage: the stage whose boundary the crash fired at (its output
        is already checkpointed when this is raised).
    """

    def __init__(self, stage: str) -> None:
        self.stage = stage
        super().__init__(f"injected crash after stage {stage!r}")


class CrashPlan:
    """Deterministic between-stage crash injection.

    :param seed: determinism root for the rate-based draws.
    :param crash_after: stage names whose boundary crashes the run, once
        each, the first time that stage *executes*.
    :param rate: additional probability of crashing after any executed
        stage, drawn per ``(stage, occurrence)`` so the schedule replays
        identically across restarts of the same plan instance.
    :raises SupervisionError: for a rate outside ``[0, 1]``.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        crash_after: Sequence[str] = (),
        rate: float = 0.0,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise SupervisionError(f"crash rate must be in [0, 1], got {rate}")
        self.seed = seed
        self.crash_after = list(crash_after)
        self.rate = rate
        self.crashes: list[str] = []
        self._fired: set[str] = set()
        self._draws: Counter[str] = Counter()

    @classmethod
    def after(cls, *stages: str, seed: int = 0) -> "CrashPlan":
        """A plan with explicit crash points only."""
        return cls(seed=seed, crash_after=stages)

    def should_crash(self, stage: str) -> bool:
        """Whether the boundary after ``stage`` kills this run.

        Called once per *executed* stage; marks explicit points as fired
        and advances the per-stage draw counter, so the decision sequence
        is a pure function of the plan's history.
        """
        if stage in self.crash_after and stage not in self._fired:
            self._fired.add(stage)
            self.crashes.append(stage)
            return True
        if self.rate:
            occurrence = self._draws[stage]
            self._draws[stage] += 1
            rng = derive_rng(self.seed, "stage-crash", stage, str(occurrence))
            if rng.random() < self.rate:
                self.crashes.append(stage)
                return True
        return False
