"""Request context for the service's spans, and the incident flight recorder.

The service traces on the same logical-tick
:class:`~repro.obs.tracer.Tracer` as the pipeline; this module holds the
two request-scoped pieces that tracer does not:

- :class:`TraceContext` — a W3C ``traceparent``-style context (32-hex
  trace id, 16-hex span id) read from an incoming request header.  A
  route span that received one exports its ``trace_id`` and
  ``parent_span_id``, so a caller's trace can find the server's span
  tree.
- :class:`FlightRecorder` — a bounded ring of recent request records that
  snapshots itself when something goes wrong (5xx, shed, quarantine), so
  the moments *before* an incident survive for post-hoc debugging.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any

_HEX = set("0123456789abcdef")


#: Request records a :class:`FlightRecorder` keeps per dump by default.
FLIGHT_RECORDER_SIZE = 256


def _is_hex(value: str, width: int) -> bool:
    return len(value) == width and set(value) <= _HEX


@dataclass(frozen=True, slots=True)
class TraceContext:
    """One hop of trace propagation: which trace, which parent span.

    :param trace_id: 32 lowercase hex digits, not all zero.
    :param span_id: 16 lowercase hex digits, not all zero — the span that
        owns the outgoing request (the receiver parents under it).
    """

    trace_id: str
    span_id: str

    def __post_init__(self) -> None:
        if not _is_hex(self.trace_id, 32) or self.trace_id == "0" * 32:
            raise ValueError(f"invalid trace_id {self.trace_id!r}")
        if not _is_hex(self.span_id, 16) or self.span_id == "0" * 16:
            raise ValueError(f"invalid span_id {self.span_id!r}")


def parse_traceparent(header: str | None) -> TraceContext | None:
    """Parse a ``traceparent`` header, returning ``None`` when malformed.

    Extraction is deliberately forgiving: a service must serve requests
    with absent, truncated, or corrupt headers identically to untraced
    ones, never reject them.
    """
    if not header:
        return None
    parts = header.strip().lower().split("-")
    if len(parts) != 4:
        return None
    version, trace_id, span_id, flags = parts
    if not _is_hex(version, 2) or version == "ff":
        return None
    if not _is_hex(flags, 2):
        return None
    if not _is_hex(trace_id, 32) or trace_id == "0" * 32:
        return None
    if not _is_hex(span_id, 16) or span_id == "0" * 16:
        return None
    return TraceContext(trace_id=trace_id, span_id=span_id)


class FlightRecorder:
    """A bounded ring of recent request records with incident snapshots.

    Every handled request appends one structured record; when something
    goes wrong the caller :meth:`trip`\\ s the recorder and the ring's
    current contents are frozen into a dump — the requests *leading up
    to* the incident, which aggregate counters cannot reconstruct.

    :param capacity: ring size (records kept per dump).
    :param max_dumps: dumps retained before further trips are only
        counted, keeping memory bounded under a failure storm.
    """

    def __init__(self, capacity: int = FLIGHT_RECORDER_SIZE, max_dumps: int = 32) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.max_dumps = max_dumps
        self.dumps: list[dict[str, Any]] = []
        self.suppressed = 0
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0

    def add(self, record: dict[str, Any]) -> None:
        """Append one request record (oldest falls off when full)."""
        with self._lock:
            self._ring.append(record)

    def trip(self, reason: str, **detail: Any) -> dict[str, Any] | None:
        """Snapshot the ring into a dump; ``None`` once ``max_dumps`` hit."""
        with self._lock:
            if len(self.dumps) >= self.max_dumps:
                self.suppressed += 1
                return None
            self._seq += 1
            dump = {
                "kind": "flight_dump",
                "seq": self._seq,
                "reason": reason,
                "detail": detail,
                "n_records": len(self._ring),
                "records": list(self._ring),
            }
            self.dumps.append(dump)
            return dump

    def export_jsonl(self, path: str | Path) -> Path:
        """One dump per line (header first), greppable after the fact."""
        path = Path(path)
        with self._lock:
            header = {
                "kind": "flight_recorder",
                "capacity": self.capacity,
                "n_dumps": len(self.dumps),
                "suppressed": self.suppressed,
            }
            lines = [json.dumps(header, sort_keys=True)]
            lines.extend(json.dumps(dump, sort_keys=True) for dump in self.dumps)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path
