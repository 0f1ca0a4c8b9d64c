"""Hierarchical deterministic tracing on a logical-tick clock.

A :class:`Tracer` records nested :class:`Span`\\ s.  Time is a **logical
tick counter** owned by the tracer: opening or closing a span advances it
by one, and instrumented code calls :meth:`Tracer.advance` with the number
of work units it just processed (packets ingested, pairs computed, merges
performed).  Durations therefore measure *work*, not wall clock, and two
runs with the same seed and configuration produce byte-identical traces.

The tracer is thread-safe.  Each thread keeps its own stack of active
spans, so a span opened on a request thread parents only under spans of
that thread; span ids, the span list and the tick clock are shared and
updated under one lock.  A span may also carry the
:class:`~repro.obs.context.TraceContext` its request arrived with.

Wall-clock capture is **optional and off by default** — tests and the
determinism contract run without it; benches turn it on to attribute real
seconds per stage.  When enabled, each span additionally records
``wall_s``; exports containing wall times are, of course, not byte-stable.

The run id is seeded and deterministic: :func:`deterministic_run_id`
hashes the seed together with a JSON rendering of the run configuration,
so the same experiment always produces the same id and two different
configurations never collide silently.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs.context import TraceContext


def deterministic_run_id(seed: int, config: Any = None) -> str:
    """A 16-hex-digit run id derived from ``seed`` and a config value.

    :param seed: the experiment seed.
    :param config: any JSON-serializable description of the run
        configuration (non-serializable leaves are stringified).
    """
    material = json.dumps({"seed": seed, "config": config}, sort_keys=True, default=str)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


@dataclass(slots=True)
class Span:
    """One traced interval.

    :param span_id: 1-based id in span-start order (deterministic).
    :param parent_id: enclosing span's id, ``None`` for roots.
    :param track: display lane (maps to a ``tid`` in the Chrome export);
        inherited from the parent when not given explicitly.
    :param start_tick: logical tick at open.
    :param end_tick: logical tick at close (``None`` while open).
    :param attrs: caller-supplied labels, exported under ``args``.
    :param wall_s: wall-clock duration, only when the tracer captures it.
    :param context: the ``traceparent`` context an incoming request
        carried; only that request's route span has one.
    """

    span_id: int
    parent_id: int | None
    name: str
    track: str
    start_tick: int
    attrs: dict[str, Any] = field(default_factory=dict)
    end_tick: int | None = None
    wall_s: float | None = None
    context: TraceContext | None = None

    @property
    def closed(self) -> bool:
        return self.end_tick is not None

    @property
    def duration_ticks(self) -> int:
        """Logical duration; ``0`` while the span is still open."""
        return (self.end_tick - self.start_tick) if self.end_tick is not None else 0


class Tracer:
    """Builds a deterministic span tree over a logical-tick clock.

    :param run_id: identifier stamped on every export (use
        :func:`deterministic_run_id` for the seeded form).
    :param wall_clock: capture real elapsed seconds per span.  Off by
        default so traces stay byte-identical across same-seed runs.
    """

    def __init__(self, run_id: str = "run", wall_clock: bool = False) -> None:
        self.run_id = run_id
        self.wall_clock = wall_clock
        self.spans: list[Span] = []
        self.tick = 0
        self._next_id = 1
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording ----------------------------------------------------------------

    def advance(self, ticks: int = 1) -> None:
        """Advance the logical clock by ``ticks`` work units.

        :raises ValueError: for a negative advance (time never rewinds).
        """
        ticks = int(ticks)
        if ticks < 0:
            raise ValueError(f"logical time is monotonic; cannot advance by {ticks}")
        with self._lock:
            self.tick += ticks

    @contextmanager
    def span(
        self,
        name: str,
        track: str | None = None,
        *,
        context: TraceContext | None = None,
        **attrs: Any,
    ) -> Iterator[Span]:
        """Open a child span of this thread's innermost active span.

        Opening and closing each consume one tick, so even a span that
        does no explicit :meth:`advance` has nonzero duration and every
        parent has nonzero self-time.

        :param context: the incoming request's trace context, exported
            with the span.
        """
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        with self._lock:
            span = Span(
                span_id=self._next_id,
                parent_id=parent.span_id if parent is not None else None,
                name=name,
                track=track or (parent.track if parent is not None else "main"),
                start_tick=self.tick,
                attrs=attrs,
                context=context,
            )
            self._next_id += 1
            self.tick += 1
            self.spans.append(span)
        stack.append(span)
        wall_started = time.perf_counter() if self.wall_clock else None
        try:
            yield span
        finally:
            stack.pop()
            with self._lock:
                self.tick += 1
                span.end_tick = self.tick
            if wall_started is not None:
                span.wall_s = time.perf_counter() - wall_started

    # -- reading ------------------------------------------------------------------

    @property
    def closed_spans(self) -> list[Span]:
        """Every finished span, in deterministic span-start order."""
        with self._lock:
            return [span for span in self.spans if span.closed]

    def spans_named(self, name: str) -> list[Span]:
        """All closed spans with one name, in start order."""
        return [span for span in self.closed_spans if span.name == name]

    def children_of(self, span: Span) -> list[Span]:
        """Direct children of ``span``, in start order."""
        return [s for s in self.spans if s.parent_id == span.span_id]
