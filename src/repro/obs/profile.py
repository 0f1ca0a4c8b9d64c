"""Stage self-time rollup over a span tree.

:class:`StageProfile` aggregates a tracer's spans by name into per-stage
totals: how many times the stage ran, its inclusive logical-tick cost, its
**self** cost (inclusive minus direct children — the time the stage spent
doing its own work rather than waiting on sub-stages), and, when the
tracer captured wall clock, the same split in seconds.

This is the attribution artifact: "where do the ticks and seconds go"
answered per pipeline stage, feeding the ``repro trace`` report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs.tracer import Tracer


@dataclass(slots=True)
class StageStats:
    """Aggregate cost of every span sharing one name."""

    name: str
    count: int = 0
    total_ticks: int = 0
    self_ticks: int = 0
    total_wall_s: float = 0.0
    self_wall_s: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total_ticks": self.total_ticks,
            "self_ticks": self.self_ticks,
            "total_wall_s": round(self.total_wall_s, 6),
            "self_wall_s": round(self.self_wall_s, 6),
        }


@dataclass(slots=True)
class StageProfile:
    """Per-stage rollup of one traced run."""

    run_id: str
    total_ticks: int
    stages: dict[str, StageStats] = field(default_factory=dict)

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "StageProfile":
        """Aggregate every closed span by name.

        Self time subtracts only *direct* children, so a grandchild's cost
        is charged to its own parent, never twice.
        """
        spans = tracer.closed_spans
        child_ticks: dict[int, int] = {}
        child_wall: dict[int, float] = {}
        for span in spans:
            if span.parent_id is not None:
                child_ticks[span.parent_id] = (
                    child_ticks.get(span.parent_id, 0) + span.duration_ticks
                )
                if span.wall_s is not None:
                    child_wall[span.parent_id] = (
                        child_wall.get(span.parent_id, 0.0) + span.wall_s
                    )
        profile = cls(run_id=tracer.run_id, total_ticks=tracer.tick)
        for span in spans:
            stats = profile.stages.get(span.name)
            if stats is None:
                stats = profile.stages[span.name] = StageStats(name=span.name)
            stats.count += 1
            stats.total_ticks += span.duration_ticks
            stats.self_ticks += span.duration_ticks - child_ticks.get(span.span_id, 0)
            if span.wall_s is not None:
                stats.total_wall_s += span.wall_s
                stats.self_wall_s += max(0.0, span.wall_s - child_wall.get(span.span_id, 0.0))
        return profile

    def stage(self, name: str) -> StageStats | None:
        return self.stages.get(name)

    def to_dict(self) -> dict[str, Any]:
        """Key-sorted JSON form (byte-stable for same-seed runs when the
        tracer ran without wall clock)."""
        return {
            "run_id": self.run_id,
            "total_ticks": self.total_ticks,
            "stages": {name: stats.to_dict() for name, stats in sorted(self.stages.items())},
        }

    def render(self) -> str:
        """Fixed-width human summary, heaviest self-time first."""
        lines = [
            f"Stage profile — run {self.run_id} ({self.total_ticks} ticks)",
            f"  {'stage':<20} {'runs':>5} {'ticks':>9} {'self':>9} {'wall s':>9} {'self s':>9}",
        ]
        ordered = sorted(
            self.stages.values(), key=lambda s: (-s.self_ticks, s.name)
        )
        for stats in ordered:
            lines.append(
                f"  {stats.name:<20} {stats.count:>5d} {stats.total_ticks:>9d} "
                f"{stats.self_ticks:>9d} {stats.total_wall_s:>9.3f} {stats.self_wall_s:>9.3f}"
            )
        return "\n".join(lines)
