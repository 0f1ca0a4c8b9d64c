"""Exporters: span JSONL, Chrome ``trace_event`` JSON, Prometheus text.

Three consumers, three formats, one determinism contract — with the
tracer's wall clock off, every byte written here is a pure function of
the seed and configuration:

- **span JSONL** — one JSON object per line (a run header, then every
  closed span in span-id order), greppable and diffable in CI;
- **Chrome trace JSON** — the ``trace_event`` format, so a pipeline run
  opens directly in ``chrome://tracing`` or Perfetto.  Logical ticks map
  to microseconds; each tracer track becomes one named thread row;
- **Prometheus text** — the whole metrics registry in the standard
  exposition format (see :meth:`repro.obs.metrics.Metrics.to_prometheus`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.metrics import Metrics
from repro.obs.tracer import Span, Tracer


def span_line(span: Span) -> dict[str, Any]:
    """The JSONL record for one closed span.

    Wall time appears only when captured, and ``trace_id`` /
    ``parent_span_id`` only when the span carries a request context.
    """
    record: dict[str, Any] = {
        "kind": "span",
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "track": span.track,
        "start_tick": span.start_tick,
        "end_tick": span.end_tick,
        "duration_ticks": span.duration_ticks,
        "attrs": span.attrs,
    }
    if span.wall_s is not None:
        record["wall_s"] = round(span.wall_s, 6)
    record.update(_context_fields(span))
    return record


def _context_fields(span: Span) -> dict[str, str]:
    """The incoming request's trace ids; empty for a span without a context."""
    if span.context is None:
        return {}
    return {"trace_id": span.context.trace_id, "parent_span_id": span.context.span_id}


def export_spans_jsonl(tracer: Tracer, path: str | Path) -> Path:
    """Write a run-header line, then one line per closed span."""
    path = Path(path)
    lines = [
        json.dumps(
            {"kind": "run", "run_id": tracer.run_id, "total_ticks": tracer.tick},
            sort_keys=True,
        )
    ]
    lines.extend(json.dumps(span_line(span), sort_keys=True) for span in tracer.closed_spans)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def chrome_trace_events(tracer: Tracer) -> list[dict[str, Any]]:
    """The ``traceEvents`` array: thread metadata, then complete events.

    Tracks are assigned ``tid``\\ s in first-use order; within each track
    events are sorted by start tick (then span id), so timestamps are
    monotonic per track.  One logical tick renders as one microsecond.
    """
    tids: dict[str, int] = {}
    for span in tracer.closed_spans:
        if span.track not in tids:
            tids[span.track] = len(tids) + 1
    events: list[dict[str, Any]] = [
        {
            "ph": "M",
            "name": "thread_name",
            "pid": 1,
            "tid": tid,
            "args": {"name": track},
        }
        for track, tid in tids.items()
    ]
    ordered = sorted(
        tracer.closed_spans, key=lambda s: (tids[s.track], s.start_tick, s.span_id)
    )
    for span in ordered:
        args: dict[str, Any] = {"span_id": span.span_id, "parent_id": span.parent_id}
        args.update(span.attrs)
        if span.wall_s is not None:
            args["wall_s"] = round(span.wall_s, 6)
        args.update(_context_fields(span))
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": "repro",
                "ts": span.start_tick,
                "dur": span.duration_ticks,
                "pid": 1,
                "tid": tids[span.track],
                "args": args,
            }
        )
    return events


def export_chrome_trace(tracer: Tracer, path: str | Path) -> Path:
    """Write a ``chrome://tracing`` / Perfetto compatible trace file."""
    path = Path(path)
    document = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {"run_id": tracer.run_id, "tick_unit": "logical"},
    }
    path.write_text(json.dumps(document, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return path


def export_metrics_text(metrics: Metrics, path: str | Path, prefix: str = "repro") -> Path:
    """Write the registry in the Prometheus text exposition format."""
    path = Path(path)
    path.write_text(metrics.to_prometheus(prefix=prefix), encoding="utf-8")
    return path
