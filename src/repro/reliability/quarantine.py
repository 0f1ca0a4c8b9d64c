"""A bounded holding pen for malformed inputs — and misbehaving members.

Batch ingestion must never abort because one record is corrupt: a single
bit-flipped packet from one device would otherwise discard a whole
collection round.  Failures land here instead, with per-error-type
counters for health reporting; the record buffer is bounded so a flood of
garbage cannot exhaust memory (the counters keep counting past the cap).

Beyond per-record bookkeeping, a quarantine can also *ban members* — a
member being, e.g., a fleet device id whose malformed/replay rate tripped
its circuit breaker.  Bans are tick-based: with ``release_after_ticks``
set, a banned member is re-admitted once the cooldown elapses (and is
re-banned just as readily if it keeps misbehaving), so a transiently
faulty device is not lost forever; without it, bans are permanent.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from repro.errors import SimulationError


def _preview(payload: object, limit: int = 96) -> str:
    text = repr(payload)
    return text if len(text) <= limit else text[: limit - 3] + "..."


@dataclass(frozen=True, slots=True)
class QuarantineRecord:
    """One quarantined input.

    :param reason: short category, defaults to the exception class name.
    :param error: the stringified exception.
    :param preview: truncated repr of the offending payload.
    """

    reason: str
    error: str
    preview: str


class Quarantine:
    """Bounded FIFO of rejected inputs plus unbounded counters.

    :param capacity: maximum records retained (older ones are evicted).
    :param release_after_ticks: cooldown after which a banned member is
        re-admitted (``None`` = bans never expire).  Timing is in the
        caller's logical ticks, like the rest of :mod:`repro.reliability`.
    """

    def __init__(self, capacity: int = 256, release_after_ticks: float | None = None) -> None:
        if capacity < 1:
            raise SimulationError(f"quarantine capacity must be >= 1, got {capacity}")
        if release_after_ticks is not None and release_after_ticks <= 0:
            raise SimulationError(
                f"release_after_ticks must be positive, got {release_after_ticks}"
            )
        self.capacity = capacity
        self.release_after_ticks = release_after_ticks
        self.records: deque[QuarantineRecord] = deque(maxlen=capacity)
        self.counts: Counter[str] = Counter()
        self.total = 0
        self._banned_at: dict[str, float] = {}
        self.bans = 0
        self.releases = 0

    def add(self, error: Exception, payload: object = None, reason: str = "") -> QuarantineRecord:
        """Quarantine one failed input and return its record."""
        record = QuarantineRecord(
            reason=reason or type(error).__name__,
            error=str(error),
            preview=_preview(payload) if payload is not None else "",
        )
        self.records.append(record)
        self.counts[record.reason] += 1
        self.total += 1
        return record

    def __len__(self) -> int:
        """Records currently retained (<= capacity; see :attr:`total`)."""
        return len(self.records)

    def __bool__(self) -> bool:
        return self.total > 0

    def summary(self) -> dict[str, int]:
        """Counts by reason, for health reports and tests."""
        return dict(self.counts)

    # -- member bans (cooldown-released) -------------------------------------------

    def ban(
        self,
        member: str,
        now: float,
        error: Exception | None = None,
        reason: str = "",
    ) -> None:
        """Ban ``member`` at logical time ``now`` (re-banning restarts the clock).

        When an ``error`` is given it is also recorded like :meth:`add`, so
        the ban shows up in :meth:`summary` under its reason.
        """
        self._banned_at[member] = now
        self.bans += 1
        if error is not None:
            self.add(error, payload=member, reason=reason)

    def is_banned(self, member: str, now: float) -> bool:
        """Whether ``member`` is banned at ``now``.

        A ban whose cooldown has elapsed is released as a side effect —
        the member is re-admitted and :attr:`releases` is bumped — so the
        next misbehaviour starts a fresh ban rather than extending a stale
        one.
        """
        banned_at = self._banned_at.get(member)
        if banned_at is None:
            return False
        if (
            self.release_after_ticks is not None
            and now - banned_at >= self.release_after_ticks
        ):
            del self._banned_at[member]
            self.releases += 1
            return False
        return True

    def banned_members(self, now: float) -> list[str]:
        """Members still banned at ``now``, sorted (expired bans released)."""
        return sorted(member for member in list(self._banned_at) if self.is_banned(member, now))
