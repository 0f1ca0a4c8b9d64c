"""Seeded, deterministic fault injection for distance-engine workers.

:class:`repro.reliability.faults.FaultPlan` models an unreliable *network*
between the server and its devices; :class:`WorkerFaultPlan` models an
unreliable *compute fleet* inside the server: pool workers crash mid-chunk,
hang past their deadline, or silently return corrupted results.  The unit
of failure is one condensed-matrix **chunk** — the task granularity of
:class:`repro.distance.engine.DistanceEngine` — so recovery can re-dispatch
exactly the work that was lost.

The taxonomy:

- ``CRASH`` — the worker dies mid-chunk; the chunk's result is lost and the
  task slot reports the loss (simulated at task granularity: a real
  SIGKILL would also take down unrelated in-flight tasks, which the
  deterministic model deliberately avoids).
- ``HANG`` — the worker wedges; the dispatcher charges the chunk's full
  logical-tick deadline before declaring the attempt dead.
- ``POISON`` — the worker returns a *plausible but wrong* result: values are
  corrupted after the honest integrity checksum was taken, modelling memory
  corruption between compute and delivery.  Detection is the dispatcher's
  job (checksum verification), recovery is quarantine-then-serial-recompute.

Outcomes are a pure function of ``(seed, chunk_index, attempt)``, so the
same plan replays identically regardless of worker count, scheduling, or
which process evaluates it — the property that lets the engine promise
bit-identical recovered runs.  The plan is picklable and crosses the pool
boundary inside the worker-state payload; parent-side bookkeeping uses
:meth:`record`, which workers never call.
"""

from __future__ import annotations

import enum
from collections import Counter

import numpy as np

from repro.errors import SimulationError
from repro.simulation.rng import derive_rng


class ChunkFaultKind(enum.Enum):
    """What happened to one chunk-evaluation attempt."""

    NONE = "none"
    CRASH = "crash"
    HANG = "hang"
    POISON = "poison"


class WorkerFaultPlan:
    """A seeded injector of worker failures at chunk granularity.

    Rates are independent probabilities that must sum to at most 1; the
    remainder is the clean-evaluation probability.

    :param seed: determinism root; equal seeds and rates produce identical
        outcome sequences for every ``(chunk_index, attempt)``.
    :param crash: probability an attempt loses its result entirely.
    :param hang: probability an attempt wedges until its deadline.
    :param poison: probability an attempt returns corrupted values.
    :param deadline_ticks: logical ticks charged before a hung attempt is
        declared dead (the engine's per-chunk deadline).
    :raises SimulationError: for rates outside ``[0, 1]``, rates summing
        past 1, or a non-positive deadline.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        crash: float = 0.0,
        hang: float = 0.0,
        poison: float = 0.0,
        deadline_ticks: int = 64,
    ) -> None:
        rates = {
            ChunkFaultKind.CRASH: crash,
            ChunkFaultKind.HANG: hang,
            ChunkFaultKind.POISON: poison,
        }
        for kind, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise SimulationError(f"{kind.value} rate must be in [0, 1], got {rate}")
        if sum(rates.values()) > 1.0 + 1e-9:
            raise SimulationError(f"fault rates sum to {sum(rates.values()):.3f} > 1")
        if deadline_ticks < 1:
            raise SimulationError(f"deadline_ticks must be >= 1, got {deadline_ticks}")
        self.seed = seed
        self.rates = rates
        self.deadline_ticks = deadline_ticks
        #: Parent-side outcome tally (workers never mutate this).
        self.counts: Counter[ChunkFaultKind] = Counter()

    @classmethod
    def uniform(cls, rate: float, seed: int = 0, *, deadline_ticks: int = 64) -> "WorkerFaultPlan":
        """A plan spreading ``rate`` across the whole taxonomy.

        Split 40% crash / 30% hang / 30% poison — the mix the pipeline
        chaos sweep uses.
        """
        return cls(
            seed=seed,
            crash=0.40 * rate,
            hang=0.30 * rate,
            poison=0.30 * rate,
            deadline_ticks=deadline_ticks,
        )

    def outcome(self, chunk_index: int, attempt: int) -> ChunkFaultKind:
        """The fault (if any) for one evaluation attempt.

        Pure and side-effect free — safe to call from pool workers; the
        dispatcher tallies outcomes with :meth:`record` in the parent.
        """
        rng = derive_rng(self.seed, "worker-fault", str(chunk_index), str(attempt))
        point = rng.random()
        cumulative = 0.0
        for kind, rate in self.rates.items():
            cumulative += rate
            if point < cumulative:
                return kind
        return ChunkFaultKind.NONE

    def record(self, kind: ChunkFaultKind) -> None:
        """Tally one observed outcome (parent-side bookkeeping)."""
        self.counts[kind] += 1

    def corrupt(self, values: np.ndarray, chunk_index: int, attempt: int) -> np.ndarray:
        """Deterministically corrupt a chunk result (the POISON payload).

        Perturbs 1-4 entries so the result stays *plausible* — finite,
        non-negative floats — which is exactly why poison must be caught by
        integrity checksums rather than range validation.
        """
        if len(values) == 0:
            return values
        rng = derive_rng(self.seed, "worker-poison", str(chunk_index), str(attempt))
        mangled = values.copy()
        for __ in range(1 + rng.randrange(4)):
            position = rng.randrange(len(mangled))
            mangled[position] = abs(mangled[position]) + 1.0 + rng.random()
        return mangled
