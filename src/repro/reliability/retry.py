"""Retry budgets, exponential backoff with seeded jitter, circuit breaking.

Time here is *logical*: the fetcher advances a tick counter by one per
attempt plus the backoff delay it would have slept.  The circuit breaker
compares those ticks against its cooldown — no wall clock anywhere, so a
retry schedule replays exactly (DESIGN.md §6).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from random import Random

from repro.errors import SimulationError


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Exponential backoff with bounded, seeded jitter.

    Delay before retry ``k`` (0-based) is
    ``min(max_delay, base_delay * multiplier**k)`` scaled by a jitter
    factor drawn uniformly from ``[1 - jitter, 1 + jitter]``.

    :param max_attempts: total tries including the first (>= 1).
    :param base_delay: first backoff delay in logical ticks.
    :param multiplier: geometric growth factor (>= 1).
    :param max_delay: cap applied before jitter.
    :param jitter: relative jitter half-width in ``[0, 1)``.
    """

    max_attempts: int = 4
    base_delay: float = 1.0
    multiplier: float = 2.0
    max_delay: float = 60.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SimulationError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise SimulationError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise SimulationError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter < 1.0:
            raise SimulationError(f"jitter must be in [0, 1), got {self.jitter}")

    def backoff(self, retry_index: int, rng: Random) -> float:
        """The delay (logical ticks) before retry ``retry_index``.

        :param retry_index: 0 for the first retry, 1 for the second, ...
        :param rng: a seeded RNG; the only randomness source for jitter.
        """
        if retry_index < 0:
            raise SimulationError(f"retry_index must be >= 0, got {retry_index}")
        raw = min(self.max_delay, self.base_delay * self.multiplier**retry_index)
        if self.jitter:
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, raw)


class BreakerState(enum.Enum):
    """Classic three-state circuit breaker."""

    CLOSED = "closed"  # normal operation
    OPEN = "open"  # tripping threshold hit; calls refused until cooldown
    HALF_OPEN = "half_open"  # cooldown elapsed; probe calls admitted


class CircuitBreaker:
    """Trips after consecutive failures, half-opens after a cooldown.

    All timing is in the caller's logical ticks — pass the current tick to
    :meth:`allow` and :meth:`record_failure`.

    :param failure_threshold: consecutive failures that open the circuit.
    :param cooldown: ticks the circuit stays open before admitting probes.
    """

    def __init__(self, failure_threshold: int = 5, cooldown: float = 30.0) -> None:
        if failure_threshold < 1:
            raise SimulationError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if cooldown < 0:
            raise SimulationError(f"cooldown must be non-negative, got {cooldown}")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self.trips = 0

    @property
    def consecutive_failures(self) -> int:
        return self._consecutive_failures

    def state(self, now: float) -> BreakerState:
        """The effective state at logical time ``now``."""
        if self._state is BreakerState.OPEN and now - self._opened_at >= self.cooldown:
            return BreakerState.HALF_OPEN
        return self._state

    def allow(self, now: float) -> bool:
        """Whether an attempt may proceed at logical time ``now``.

        Transitions OPEN -> HALF_OPEN as a side effect once the cooldown
        has elapsed, so the admitted call acts as the probe.
        """
        state = self.state(now)
        if state is BreakerState.HALF_OPEN and self._state is BreakerState.OPEN:
            self._state = BreakerState.HALF_OPEN
        return state is not BreakerState.OPEN

    def record_success(self) -> None:
        """A call succeeded: close the circuit and reset the streak."""
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0

    def record_failure(self, now: float) -> None:
        """A call failed at ``now``: extend the streak, maybe (re)open."""
        self._consecutive_failures += 1
        if self._state is BreakerState.HALF_OPEN:
            # The probe failed — straight back to OPEN for another cooldown.
            self._state = BreakerState.OPEN
            self._opened_at = now
            self.trips += 1
        elif (
            self._state is BreakerState.CLOSED
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._state = BreakerState.OPEN
            self._opened_at = now
            self.trips += 1
