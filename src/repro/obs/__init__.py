"""``repro.obs`` — the shared observability core (DESIGN.md §7).

One :class:`Observability` bundle carries a :class:`~repro.obs.tracer.Tracer`
(hierarchical spans on a logical-tick clock) and a
:class:`~repro.obs.metrics.Metrics` registry (counters, gauges,
histograms).  Instrumented subsystems accept an optional bundle and fall
back to :data:`NULL_OBS`, whose every operation is a no-op — so the
uninstrumented path stays allocation-free and, by construction, produces
bit-identical results.

The determinism contract: with the wall clock off (the default), every
artifact exported from an observed run — span JSONL, Chrome trace JSON,
Prometheus text — is a pure function of the seed and configuration.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any

from repro.obs.context import FlightRecorder, TraceContext, parse_traceparent
from repro.obs.export import (
    export_chrome_trace,
    export_metrics_text,
    export_spans_jsonl,
)
from repro.obs.metrics import DEFAULT_BOUNDS, Histogram, Metrics
from repro.obs.profile import StageProfile, StageStats
from repro.obs.slo import (
    DEFAULT_SERVICE_OBJECTIVES,
    AlertSeverity,
    BurnRule,
    SloEngine,
    SloObjective,
)
from repro.obs.tracer import Span, Tracer, deterministic_run_id

__all__ = [
    "AlertSeverity",
    "BurnRule",
    "DEFAULT_BOUNDS",
    "DEFAULT_SERVICE_OBJECTIVES",
    "FlightRecorder",
    "Histogram",
    "Metrics",
    "NULL_OBS",
    "Observability",
    "SloEngine",
    "SloObjective",
    "Span",
    "StageProfile",
    "StageStats",
    "TraceContext",
    "Tracer",
    "deterministic_run_id",
    "export_chrome_trace",
    "export_metrics_text",
    "export_spans_jsonl",
    "parse_traceparent",
]


class Observability:
    """A tracer and a metrics registry travelling together.

    :param tracer: span sink (a fresh one is created if omitted).
    :param metrics: metrics registry (a fresh one is created if omitted).
    """

    enabled: bool = True

    def __init__(self, tracer: Tracer | None = None, metrics: Metrics | None = None) -> None:
        self.tracer = tracer or Tracer()
        self.metrics = metrics or Metrics()

    @classmethod
    def create(
        cls, *, seed: int = 0, config: Any = None, wall_clock: bool = False
    ) -> "Observability":
        """A bundle with a seeded deterministic run id.

        :param seed: experiment seed, hashed into the run id.
        :param config: JSON-serializable run configuration, hashed too.
        :param wall_clock: capture wall-clock span durations (off keeps
            exports byte-identical across same-seed runs).
        """
        return cls(tracer=Tracer(deterministic_run_id(seed, config), wall_clock=wall_clock))

    # -- tracing ------------------------------------------------------------------

    def span(self, name: str, track: str | None = None, **attrs: Any):
        """Open a span (see :meth:`Tracer.span`)."""
        return self.tracer.span(name, track=track, **attrs)

    def advance(self, ticks: int = 1) -> None:
        """Advance the logical clock by ``ticks`` work units."""
        self.tracer.advance(ticks)

    # -- metrics ------------------------------------------------------------------

    def inc(self, name: str, by: int = 1) -> None:
        """Bump a monotonic counter."""
        self.metrics.inc(name, by)

    def observe(self, name: str, value: float, bounds: tuple[float, ...] | None = None) -> None:
        """Record one histogram observation."""
        self.metrics.observe(name, value, bounds)

    def set_gauge(self, name: str, value: float) -> None:
        """Set a last-write-wins level."""
        self.metrics.set_gauge(name, value)

    # -- export -------------------------------------------------------------------

    def profile(self) -> StageProfile:
        """The per-stage self-time rollup of everything traced so far."""
        return StageProfile.from_tracer(self.tracer)


class _NullObservability(Observability):
    """The disabled bundle: every operation is a no-op.

    Instrumented code writes ``self.obs = obs or NULL_OBS`` once and then
    calls unconditionally — no branching, no allocation, and therefore no
    behavioural difference between observed and unobserved runs.
    """

    enabled = False

    def __init__(self) -> None:  # no tracer/metrics allocated
        self.tracer = None  # type: ignore[assignment]
        self.metrics = None  # type: ignore[assignment]

    def span(self, name: str, track: str | None = None, **attrs: Any):
        return _NO_SPAN

    def advance(self, ticks: int = 1) -> None:
        return None

    def inc(self, name: str, by: int = 1) -> None:
        return None

    def observe(self, name: str, value: float, bounds: tuple[float, ...] | None = None) -> None:
        return None

    def set_gauge(self, name: str, value: float) -> None:
        return None


#: The span every disabled bundle opens: a reusable context yielding ``None``.
_NO_SPAN = nullcontext()

#: The shared disabled bundle (safe to share: it holds no state).
NULL_OBS = _NullObservability()
