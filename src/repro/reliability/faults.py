"""Seeded, deterministic fault injection for byte payloads.

A :class:`FaultPlan` models the unreliable path between the signature
server and a device (or between devices and the collection server).  Each
:meth:`~FaultPlan.apply` call draws from an RNG derived from the plan's
seed and a per-call counter, so a plan replays bit-for-bit: same seed,
same call order, same faults.  No wall clock, no global RNG (DESIGN.md §6).

The taxonomy covers the failure modes a crowd-sourced distribution pipeline
actually sees:

- ``DROP`` — the payload never arrives (connection reset, radio loss);
- ``TRUNCATE`` — a prefix arrives (interrupted transfer);
- ``CORRUPT`` — bytes arrive flipped (bad storage, broken middlebox);
- ``DELAY`` — the payload arrives intact but late (logical ticks);
- ``STALE`` — an *older* version is served (misbehaving cache / CDN).

``STALE`` is signalled, not synthesized: the plan has no version history,
so the consumer (e.g. :class:`repro.core.distribution.SignatureFetcher`)
substitutes an earlier payload when it sees the outcome kind.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.simulation.rng import derive_rng


class FaultKind(enum.Enum):
    """What the transport did to one transmission."""

    NONE = "none"
    DROP = "drop"
    TRUNCATE = "truncate"
    CORRUPT = "corrupt"
    DELAY = "delay"
    STALE = "stale"


@dataclass(frozen=True, slots=True)
class FaultOutcome:
    """The result of pushing one payload through the fault plan.

    :param kind: which fault fired (``NONE`` for a clean pass).
    :param payload: the delivered bytes; ``None`` when dropped.
    :param delay_ticks: logical latency added by a ``DELAY`` fault.
    """

    kind: FaultKind
    payload: bytes | None
    delay_ticks: float = 0.0


class FaultPlan:
    """A seeded injector applying one fault taxonomy at fixed rates.

    Rates are independent probabilities that must sum to at most 1; the
    remainder is the clean-delivery probability.  Outcomes are counted in
    :attr:`counts` for health reporting and assertions.

    :param seed: determinism root; two plans with equal seeds and rates
        produce identical outcome sequences.
    :param drop: probability a payload is dropped entirely.
    :param truncate: probability a payload is cut to a strict prefix.
    :param corrupt: probability 1-4 bytes are bit-flipped.
    :param delay: probability the payload is delayed (still intact).
    :param stale: probability a stale version is signalled.
    :param max_delay_ticks: upper bound of the uniform delay draw.
    :raises SimulationError: for rates outside ``[0, 1]`` or summing past 1.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        drop: float = 0.0,
        truncate: float = 0.0,
        corrupt: float = 0.0,
        delay: float = 0.0,
        stale: float = 0.0,
        max_delay_ticks: float = 8.0,
    ) -> None:
        rates = {
            FaultKind.DROP: drop,
            FaultKind.TRUNCATE: truncate,
            FaultKind.CORRUPT: corrupt,
            FaultKind.DELAY: delay,
            FaultKind.STALE: stale,
        }
        for kind, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise SimulationError(f"{kind.value} rate must be in [0, 1], got {rate}")
        if sum(rates.values()) > 1.0 + 1e-9:
            raise SimulationError(f"fault rates sum to {sum(rates.values()):.3f} > 1")
        if max_delay_ticks < 0:
            raise SimulationError(f"max_delay_ticks must be non-negative, got {max_delay_ticks}")
        self.seed = seed
        self.rates = rates
        self.max_delay_ticks = max_delay_ticks
        self.counts: Counter[FaultKind] = Counter()
        self._calls = 0

    @classmethod
    def uniform(cls, rate: float, seed: int = 0) -> "FaultPlan":
        """A plan spreading ``rate`` across the whole taxonomy.

        Split 40% drop / 25% corrupt / 15% truncate / 10% delay / 10%
        stale — the mix the chaos bench sweeps.
        """
        return cls(
            seed=seed,
            drop=0.40 * rate,
            corrupt=0.25 * rate,
            truncate=0.15 * rate,
            delay=0.10 * rate,
            stale=0.10 * rate,
        )

    def apply(self, payload: bytes, *labels: str) -> FaultOutcome:
        """Push one payload through the transport.

        :param payload: the bytes being transmitted.
        :param labels: extra derivation labels (e.g. a device id) so two
            logical streams sharing a plan stay independent.
        """
        self._calls += 1
        rng = derive_rng(self.seed, "fault", str(self._calls), *labels)
        point = rng.random()
        cumulative = 0.0
        chosen = FaultKind.NONE
        for kind, rate in self.rates.items():
            cumulative += rate
            if point < cumulative:
                chosen = kind
                break
        self.counts[chosen] += 1

        if chosen is FaultKind.DROP:
            return FaultOutcome(kind=chosen, payload=None)
        if chosen is FaultKind.TRUNCATE:
            if len(payload) <= 1:
                return FaultOutcome(kind=chosen, payload=b"")
            cut = rng.randrange(0, len(payload))
            return FaultOutcome(kind=chosen, payload=payload[:cut])
        if chosen is FaultKind.CORRUPT:
            return FaultOutcome(kind=chosen, payload=self._corrupt(payload, rng))
        if chosen is FaultKind.DELAY:
            return FaultOutcome(
                kind=chosen,
                payload=payload,
                delay_ticks=rng.uniform(0.0, self.max_delay_ticks),
            )
        # STALE: payload passed through untouched; the consumer substitutes
        # an older version when it sees the kind.
        return FaultOutcome(kind=chosen, payload=payload)

    @staticmethod
    def _corrupt(payload: bytes, rng) -> bytes:
        if not payload:
            return payload
        mangled = bytearray(payload)
        n_flips = 1 + rng.randrange(4)
        for __ in range(n_flips):
            position = rng.randrange(len(mangled))
            mangled[position] ^= 1 + rng.randrange(255)
        return bytes(mangled)
