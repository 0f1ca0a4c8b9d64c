"""Request-scoped tracing across the process boundary (DESIGN.md §7).

The logical-tick :class:`~repro.obs.tracer.Tracer` covers in-process
pipeline work; this module covers the *service* path, where one request
crosses a socket and must be reconstructable end to end:

- :class:`TraceContext` — a W3C ``traceparent``-style context (32-hex
  trace id, 16-hex span id) that survives HTTP header transport.  Ids are
  deterministic: the trace id is the 16-hex obs run id plus a 16-hex
  monotonic counter, so two same-seed runs allocate identical ids.
- :class:`RequestTracer` — a thread-safe, wall-clock span recorder.  Each
  process (client, server) owns one; client request spans and server
  route-span trees share a trace id via header propagation.  Spans carry
  an epoch-ms start so lanes from different processes align on one
  timeline, and a perf-counter duration so widths are accurate.
- :class:`FlightRecorder` — a bounded ring of recent request records that
  snapshots itself when something goes wrong (5xx, shed, quarantine), so
  the moments *before* an incident survive for post-hoc debugging.
- :func:`join_chrome_trace` / :func:`audit_trace_join` — the post-run
  joiner: merge per-process span JSONL into one Chrome trace with one
  lane group per process, and verify every client request span reaches
  its server span tree through the trace id.

The null objects :data:`NULL_REQUEST_TRACER` and
:data:`NULL_FLIGHT_RECORDER` keep the uninstrumented path branch-light
and allocation-free, exactly like :data:`repro.obs.NULL_OBS`.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

TRACEPARENT_VERSION = "00"
#: Sampled flag, always set: every traced request is recorded.
TRACEPARENT_FLAGS = "01"

_HEX = set("0123456789abcdef")

#: Span-id prefixes per process, so client and server allocations can
#: never collide inside one joined trace (both still count from 1).
_PROCESS_TAGS = {"client": "c0", "server": "5e"}


def _is_hex(value: str, width: int) -> bool:
    return len(value) == width and set(value) <= _HEX


def _hex16(run_id: str) -> str:
    """Normalize an arbitrary run id to 16 lowercase hex digits.

    A :func:`repro.obs.tracer.deterministic_run_id` passes through
    unchanged; anything else is hashed, so the mapping stays stable.
    """
    candidate = run_id.lower()
    if _is_hex(candidate, 16):
        return candidate
    return hashlib.sha256(run_id.encode("utf-8")).hexdigest()[:16]


def _process_tag(process: str) -> str:
    tag = _PROCESS_TAGS.get(process)
    if tag is None:
        tag = hashlib.sha256(process.encode("utf-8")).hexdigest()[:2]
    return tag


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

    def to_traceparent(self) -> str:
        """The ``version-traceid-spanid-flags`` header value."""
        return f"{TRACEPARENT_VERSION}-{self.trace_id}-{self.span_id}-{TRACEPARENT_FLAGS}"


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


@dataclass(slots=True)
class RequestSpan:
    """One wall-clock span inside a request trace.

    :param start_ms: epoch milliseconds at open — the *shared* timeline
        that lets client and server lanes align in a joined trace.
    :param dur_ms: perf-counter duration (``None`` while open).
    """

    trace_id: str
    span_id: str
    parent_span_id: str | None
    name: str
    process: str
    track: str
    start_ms: float
    attrs: dict[str, Any] = field(default_factory=dict)
    dur_ms: float | None = None

    @property
    def closed(self) -> bool:
        return self.dur_ms is not None

    @property
    def context(self) -> TraceContext:
        """The propagation context for requests issued inside this span."""
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)


class RequestTracer:
    """Thread-safe request-span recorder for one process.

    Each request is handled on one thread, so the active-span stack is
    thread-local while the span list and id counters are shared under a
    lock.  Id allocation is deterministic (run-id prefix + monotonic
    counters); timestamps are wall clock by design — socket requests are
    the one deliberately wall-clocked corner of the repo.

    :param process: lane-group name in joined traces (``client``/``server``).
    :param run_id: prefixed (normalized to 16 hex) into every trace id.
    :param clock: epoch-seconds source, injectable for deterministic tests.
    :param perf: monotonic-seconds source for durations, also injectable.
    """

    enabled: bool = True

    def __init__(
        self,
        process: str,
        run_id: str = "run",
        *,
        clock: Callable[[], float] = time.time,
        perf: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.process = process
        self.run_id = run_id
        self.spans: list[RequestSpan] = []
        self._run16 = _hex16(run_id)
        self._tag = _process_tag(process)
        self._clock = clock
        self._perf = perf
        self._lock = threading.Lock()
        self._local = threading.local()
        self._trace_counter = 0
        self._span_counter = 0

    # -- id allocation ------------------------------------------------------------

    def _next_trace_id(self) -> str:
        with self._lock:
            self._trace_counter += 1
            return f"{self._run16}{self._trace_counter:016x}"

    def _next_span_id(self) -> str:
        with self._lock:
            self._span_counter += 1
            return f"{self._tag}{self._span_counter:014x}"

    # -- recording ----------------------------------------------------------------

    def _stack(self) -> list[RequestSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def _open(
        self,
        trace_id: str,
        parent_span_id: str | None,
        name: str,
        track: str,
        attrs: dict[str, Any],
    ) -> Iterator[RequestSpan]:
        span = RequestSpan(
            trace_id=trace_id,
            span_id=self._next_span_id(),
            parent_span_id=parent_span_id,
            name=name,
            process=self.process,
            track=track,
            start_ms=self._clock() * 1000.0,
            attrs=dict(attrs),
        )
        with self._lock:
            self.spans.append(span)
        stack = self._stack()
        stack.append(span)
        started = self._perf()
        try:
            yield span
        finally:
            stack.pop()
            span.dur_ms = (self._perf() - started) * 1000.0

    @contextmanager
    def request(self, name: str, *, track: str = "requests", **attrs: Any) -> Iterator[RequestSpan]:
        """Client side: a root span under a freshly allocated trace.

        Inject ``span.context`` into the outgoing request's headers so
        the server parents its route span under this one.
        """
        with self._open(self._next_trace_id(), None, name, track, attrs) as span:
            yield span

    @contextmanager
    def serve(
        self,
        name: str,
        parent: TraceContext | None,
        *,
        track: str = "requests",
        **attrs: Any,
    ) -> Iterator[RequestSpan]:
        """Server side: the route span for one incoming request.

        Continues ``parent`` when the caller sent a valid ``traceparent``;
        otherwise starts a fresh trace so untraced requests still record.
        """
        if parent is not None:
            trace_id, parent_span_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_span_id = self._next_trace_id(), None
        with self._open(trace_id, parent_span_id, name, track, attrs) as span:
            yield span

    @contextmanager
    def child(self, name: str, **attrs: Any) -> Iterator[RequestSpan]:
        """A child of this thread's innermost active span.

        With no active span (an endpoint called in-process, outside any
        request), the span becomes the root of a fresh trace — the
        instrumentation never refuses to record.
        """
        stack = self._stack()
        if stack:
            parent = stack[-1]
            trace_id, parent_span_id, track = parent.trace_id, parent.span_id, parent.track
        else:
            trace_id, parent_span_id, track = self._next_trace_id(), None, "requests"
        with self._open(trace_id, parent_span_id, name, track, attrs) as span:
            yield span

    # -- reading / export ---------------------------------------------------------

    @property
    def closed_spans(self) -> list[RequestSpan]:
        with self._lock:
            return [span for span in self.spans if span.closed]

    def spans_named(self, name: str) -> list[RequestSpan]:
        return [span for span in self.closed_spans if span.name == name]


class _NullRequestTracer(RequestTracer):
    """The disabled tracer: no ids, no spans, no allocation."""

    enabled = False

    def __init__(self) -> None:  # no lock/list/counters allocated
        self.process = "null"
        self.run_id = "null"
        self.spans = []

    @contextmanager
    def _null_span(self) -> Iterator[None]:
        yield None

    def request(self, name: str, *, track: str = "requests", **attrs: Any):
        return self._null_span()

    def serve(self, name: str, parent: TraceContext | None, *, track: str = "requests", **attrs):
        return self._null_span()

    def child(self, name: str, **attrs: Any):
        return self._null_span()

    @property
    def closed_spans(self) -> list[RequestSpan]:
        return []


#: The shared disabled request tracer (stateless, safe to share).
NULL_REQUEST_TRACER = _NullRequestTracer()


# -- flight recorder --------------------------------------------------------------


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

    enabled: bool = True

    def __init__(self, capacity: int = 256, max_dumps: int = 32) -> None:
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


class _NullFlightRecorder(FlightRecorder):
    """The disabled recorder: records vanish, trips never dump."""

    enabled = False

    def __init__(self) -> None:
        self.capacity = 0
        self.max_dumps = 0
        self.dumps = []
        self.suppressed = 0

    def add(self, record: dict[str, Any]) -> None:
        return None

    def trip(self, reason: str, **detail: Any) -> dict[str, Any] | None:
        return None

    def export_jsonl(self, path: str | Path) -> Path:
        raise RuntimeError("flight recorder is disabled; nothing to export")


#: The shared disabled flight recorder (stateless, safe to share).
NULL_FLIGHT_RECORDER = _NullFlightRecorder()


# -- span JSONL + cross-process joining -------------------------------------------


def request_span_line(span: RequestSpan) -> dict[str, Any]:
    """The JSONL record for one closed request span."""
    return {
        "kind": "request_span",
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_span_id": span.parent_span_id,
        "name": span.name,
        "process": span.process,
        "track": span.track,
        "start_ms": round(span.start_ms, 3),
        "dur_ms": round(span.dur_ms, 3) if span.dur_ms is not None else None,
        "attrs": span.attrs,
    }


def export_request_spans_jsonl(tracer: RequestTracer, path: str | Path) -> Path:
    """Write a run-header line, then one line per closed span."""
    path = Path(path)
    spans = tracer.closed_spans
    lines = [
        json.dumps(
            {
                "kind": "run",
                "run_id": tracer.run_id,
                "process": tracer.process,
                "n_spans": len(spans),
            },
            sort_keys=True,
        )
    ]
    lines.extend(json.dumps(request_span_line(span), sort_keys=True) for span in spans)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def load_request_spans(path: str | Path) -> list[dict[str, Any]]:
    """Read the span records (header lines are skipped) from a JSONL file."""
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("kind") == "request_span":
            records.append(record)
    return records


def join_chrome_trace(groups: dict[str, list[dict[str, Any]]]) -> dict[str, Any]:
    """Merge per-process span records into one Chrome ``trace_event`` doc.

    Each process becomes one ``pid`` lane group (named via ``process_name``
    metadata, assigned in sorted order so client=1, server=2); each
    ``track`` within a process becomes a ``tid`` in first-use order.
    Timestamps are the shared epoch-ms clock converted to microseconds,
    so spans from both processes line up on one timeline.
    """
    pids = {process: i + 1 for i, process in enumerate(sorted(groups))}
    events: list[dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": pid, "tid": 0, "args": {"name": process}}
        for process, pid in pids.items()
    ]
    for process, pid in pids.items():
        spans = sorted(
            groups[process], key=lambda s: (s.get("start_ms", 0.0), s.get("span_id", ""))
        )
        tids: dict[str, int] = {}
        for span in spans:
            track = span.get("track", "requests")
            if track not in tids:
                tids[track] = len(tids) + 1
                events.append(
                    {
                        "ph": "M",
                        "name": "thread_name",
                        "pid": pid,
                        "tid": tids[track],
                        "args": {"name": track},
                    }
                )
        for span in spans:
            args: dict[str, Any] = {
                "trace_id": span["trace_id"],
                "span_id": span["span_id"],
                "parent_span_id": span.get("parent_span_id"),
            }
            args.update(span.get("attrs", {}))
            dur_ms = span.get("dur_ms") or 0.0
            events.append(
                {
                    "ph": "X",
                    "name": span["name"],
                    "cat": "repro.request",
                    "ts": round(span["start_ms"] * 1000.0, 1),
                    "dur": max(round(dur_ms * 1000.0, 1), 1.0),
                    "pid": pid,
                    "tid": tids[span.get("track", "requests")],
                    "args": args,
                }
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"joined_processes": sorted(groups)},
    }


def export_joined_chrome_trace(groups: dict[str, list[dict[str, Any]]], path: str | Path) -> Path:
    """Write the joined cross-process trace to ``path``."""
    path = Path(path)
    document = join_chrome_trace(groups)
    path.write_text(json.dumps(document, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return path


def audit_trace_join(
    client_spans: list[dict[str, Any]], server_spans: list[dict[str, Any]]
) -> dict[str, Any]:
    """Verify every client request span reaches a server span tree.

    A join is complete when each client root span's trace id appears on
    the server side, and every server root in that trace parents directly
    under the client span (the propagated context arrived intact).
    Client spans with no server tree, propagated server roots with a
    broken parent link, and server traces claiming a foreign parent all
    fail the audit.  Server traces rooted server-side (no parent) are
    legitimately untraced callers, not orphans.
    """
    client_roots = [s for s in client_spans if s.get("parent_span_id") is None]
    by_trace: dict[str, list[dict[str, Any]]] = {}
    for span in server_spans:
        by_trace.setdefault(span["trace_id"], []).append(span)

    joined = orphan_client = broken_parent = 0
    client_trace_ids = set()
    for root in client_roots:
        trace_id = root["trace_id"]
        client_trace_ids.add(trace_id)
        tree = by_trace.get(trace_id, [])
        if not tree:
            orphan_client += 1
            continue
        server_ids = {s["span_id"] for s in tree}
        roots = [s for s in tree if s.get("parent_span_id") not in server_ids]
        if roots and all(s.get("parent_span_id") == root["span_id"] for s in roots):
            joined += 1
        else:
            broken_parent += 1
    orphan_server = 0
    for trace_id, tree in by_trace.items():
        if trace_id in client_trace_ids:
            continue
        server_ids = {s["span_id"] for s in tree}
        roots = [s for s in tree if s.get("parent_span_id") not in server_ids]
        if any(s.get("parent_span_id") is not None for s in roots):
            orphan_server += 1
    return {
        "n_client_requests": len(client_roots),
        "n_server_spans": len(server_spans),
        "n_joined": joined,
        "n_orphan_client": orphan_client,
        "n_orphan_server": orphan_server,
        "n_broken_parent": broken_parent,
        "complete": (
            len(client_roots) > 0
            and joined == len(client_roots)
            and orphan_server == 0
            and broken_parent == 0
        ),
    }
