"""Serving telemetry: a thin shim over the :mod:`repro.obs` core.

Historically this module owned the counter/histogram primitives; they now
live in :mod:`repro.obs.metrics` (the shared observability core) and
:class:`ServingTelemetry` delegates to a :class:`~repro.obs.metrics.Metrics`
registry while keeping its exact public surface and export formats — the
JSONL and snapshot output is byte-for-byte what the
pre-migration implementation produced (regression-tested in
``tests/test_serving_telemetry.py``).

Everything is measured in *logical ticks* (the gateway's deterministic
clock) or plain counts, so two runs with the same seed produce identical
telemetry byte-for-byte — tests can assert on it, and CI can
diff exported JSONL across commits without wall-clock noise.

Three primitives:

- monotonic **counters** (``increment``), keyed by name;
- **histograms** with fixed bucket bounds (``observe``) reporting
  deterministic percentile estimates (the upper edge of the bucket the
  quantile falls in, exact observed max for the overflow bucket; an empty
  histogram's percentiles are defined as ``0.0``);
- **span events** (``span``) — one dict per interesting interval or
  moment (a dispatched batch, an applied reload), exported as JSONL.
  The log is a ring of the newest :data:`SPAN_LOG_CAPACITY` events, so a
  long-lived gateway holds bounded memory; the ``span_log_evicted``
  counter appears once the first event falls out.

Snapshot ordering is explicit: counters and histograms serialize with
sorted keys, so exported artifacts diff cleanly across commits.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Any

from repro.obs.metrics import Histogram, Metrics

__all__ = [
    "DEPTH_BOUNDS",
    "Histogram",
    "LATENCY_BOUNDS",
    "SPAN_LOG_CAPACITY",
    "ServingTelemetry",
]

#: Default latency bucket upper edges, in logical ticks (last is +inf).
LATENCY_BOUNDS: tuple[float, ...] = (
    0.5, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512,
)

#: Default queue-depth bucket upper edges (last is +inf).
DEPTH_BOUNDS: tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64, 128)

#: Span events kept per gateway.  ``repro metrics`` at its default 1,200
#: events logs 236, so every export below about 20,000 events is whole.
SPAN_LOG_CAPACITY = 4096


class ServingTelemetry:
    """The gateway's measurement sink.

    One instance per gateway run; :meth:`snapshot` summarizes it and the
    raw span log can be exported as JSONL for offline analysis.

    :param metrics: the backing registry.  Pass a shared
        :class:`~repro.obs.metrics.Metrics` to merge gateway counters with
        the rest of a scenario (distribution channel, flow control) in one
        Prometheus exposition; omitted, a private registry is created and
        behaviour matches the pre-``repro.obs`` implementation exactly.
    """

    def __init__(self, metrics: Metrics | None = None) -> None:
        self.metrics = metrics or Metrics()
        for name in ("latency_ticks", "shed_latency_ticks"):
            self.metrics.histogram(name, LATENCY_BOUNDS)
        for name in ("queue_depth", "batch_size"):
            self.metrics.histogram(name, DEPTH_BOUNDS)
        self.spans: deque[dict[str, Any]] = deque(maxlen=SPAN_LOG_CAPACITY)

    @property
    def counters(self) -> dict[str, int]:
        """The registry's counter table (live view, not a copy)."""
        return self.metrics.counters

    @property
    def histograms(self) -> dict[str, Histogram]:
        """The registry's histogram table (live view, not a copy)."""
        return self.metrics.histograms

    def increment(self, name: str, by: int = 1) -> None:
        """Bump a monotonic counter."""
        self.metrics.inc(name, by)

    def observe(self, name: str, value: float) -> None:
        """Record one histogram observation (histogram must be registered)."""
        self.metrics.histograms[name].observe(value)

    def span(self, kind: str, **fields: Any) -> None:
        """Append one span event (dispatch, completion, reload, ...).

        A full log drops its oldest event and counts it in
        ``span_log_evicted``.
        """
        if len(self.spans) == self.spans.maxlen:
            self.metrics.inc("span_log_evicted")
        self.spans.append({"kind": kind, **fields})

    def spans_of(self, kind: str) -> list[dict[str, Any]]:
        """All recorded spans of one kind, in emission order."""
        return [span for span in self.spans if span["kind"] == kind]

    def snapshot(self) -> dict[str, Any]:
        """A JSON-serializable summary of everything measured so far.

        Counter and histogram keys are sorted — the snapshot (and the
        JSONL summary line built from it) is byte-stable for identical
        measurement sequences regardless of insertion order.
        """
        return {
            "counters": dict(sorted(self.counters.items())),
            "histograms": {name: h.to_dict() for name, h in sorted(self.histograms.items())},
            "spans": len(self.spans),
        }

    def export_jsonl(self, path: str | Path) -> Path:
        """Write every span as one JSON line, then a closing summary line."""
        path = Path(path)
        lines = [json.dumps(span, sort_keys=True) for span in self.spans]
        lines.append(json.dumps({"kind": "summary", **self.snapshot()}, sort_keys=True))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path
