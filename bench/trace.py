"""Timing spans around each layer's public entry points, from outside the program.

The benchmark never edits ``src/``: :func:`install` replaces the callables
named in :data:`LAYER_CALLS` with wrappers that record one span per call.
Class methods are wrapped on their class; a function that a module imports
by name (``repro.core.server.agglomerate``) is wrapped in that module,
because the module holds its own reference.

A span is ``(id, parent_id, name, parent_name, thread, start, dur, self, units)``:
``self`` is the span's duration minus the time of wrapped child spans on the
same thread, and ``units`` is a per-call work count (pairs, packets, events).
Spans stay in memory until :meth:`Tracer.dump` writes them as JSONL.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable

clock = time.perf_counter


def _n_pairs(args: tuple, kwargs: dict, result: Any) -> int:
    n = len(args[1])
    return n * (n - 1) // 2


def _len_arg(args: tuple, kwargs: dict, result: Any) -> int:
    return len(args[1])


def _len_arg0(args: tuple, kwargs: dict, result: Any) -> int:
    return len(args[0])


def _len_result(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result)


def _matrix_n(args: tuple, kwargs: dict, result: Any) -> int:
    return args[0].n


def _screened(args: tuple, kwargs: dict, result: Any) -> int:
    return result.n_suspicious + result.n_normal


#: span name -> (module, attribute path, units function or None).  The
#: layer of a span is the part of its name before the first dot.
LAYER_CALLS: dict[str, list[tuple[str, str, Callable | None]]] = {
    "sensitive.split": [("repro.sensitive.payload_check", "PayloadCheck.split", _len_arg)],
    "distance.matrix": [("repro.distance.engine", "DistanceEngine.matrix", _n_pairs)],
    "distance.extend": [("repro.distance.engine", "PairStream.extend", _len_arg)],
    "distance.pairs": [("repro.distance.engine", "PairStream.distances", _len_arg)],
    "clustering.linkage": [
        ("repro.core.server", "agglomerate", _matrix_n),
        ("repro.core.streaming", "agglomerate", _matrix_n),
    ],
    "clustering.cut": [
        ("repro.signatures.generator", "SignatureGenerator.clusters_from_dendrogram", None),
        ("repro.core.streaming", "cut_by_height", None),
    ],
    "signatures.generate": [
        ("repro.signatures.generator", "SignatureGenerator.from_clusters", _len_result),
    ],
    "signatures.screen": [("repro.core.pipeline", "compute_metrics", _screened)],
    "signatures.envelope_verify": [
        ("repro.signatures.store", "SignatureStore.loads_envelope", None),
    ],
    "streaming.ingest": [("repro.core.streaming", "StreamingClusterer.ingest", _len_arg)],
    "streaming.compact": [("repro.core.streaming", "StreamingClusterer.compact", None)],
    "serving.gateway_run": [("repro.serving.gateway", "ScreeningGateway.run", None)],
    "serving.match": [("repro.serving.shards", "ShardedMatcher.match_batch", _len_arg)],
    "serving.reload": [("repro.serving.gateway", "ScreeningGateway.apply_reload", None)],
    "service.screen": [("repro.service.server", "SignatureService.screen", None)],
    "service.fetch": [("repro.service.server", "SignatureService.fetch", None)],
    "service.publish": [("repro.service.server", "SignatureService.publish", None)],
    "service.ingest": [("repro.service.server", "SignatureService.ingest_reports", None)],
    "service.observe": [("repro.service.server", "SignatureService.observe_request", None)],
    "service.repo_read": [
        ("repro.service.repository", "SqliteSignatureRepository.latest", None),
    ],
    "service.repo_store": [
        ("repro.service.repository", "SqliteSignatureRepository.store", None),
    ],
    "service.repo_write": [("repro.service.repository", "SqliteReportRepository.add", None)],
    "wire.decode": [("repro.service.server", "decode_event", None)],
    "wire.encode": [("repro.service.server", "encode_results", _len_arg0)],
    "http.parse": [("repro.service.server", "_ServiceHandler.parse_request", None)],
    "http.handler": [
        ("repro.service.server", "_ServiceHandler.do_GET", None),
        ("repro.service.server", "_ServiceHandler.do_POST", None),
    ],
    "federation.submit": [("repro.federation.ingest", "FleetIngest.submit", None)],
}


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, units: Callable | None) -> Callable:
        """``fn`` with a span recorded around every call."""
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            # [id, name, start, child time]
            frame = [next(ids), name, 0.0, 0.0]
            stack.append(frame)
            frame[2] = start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = clock() - start
                stack.pop()
                if parent is not None:
                    parent[3] += duration
                work = units(args, kwargs, result) if units is not None and result is not None else 1
                spans.append((
                    frame[0],
                    parent[0] if parent is not None else 0,
                    name,
                    parent[1] if parent is not None else "",
                    threading.get_ident(),
                    start,
                    duration,
                    duration - frame[3],
                    work,
                ))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every callable in :data:`LAYER_CALLS`, for the life of the process."""
        for name, targets in LAYER_CALLS.items():
            for module_name, path, units in targets:
                owner: Any = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, staticmethod):
                    # Units functions read a method's arguments; none is set for a staticmethod.
                    setattr(owner, attr, staticmethod(self.wrap(raw.__func__, name, None)))
                else:
                    setattr(owner, attr, self.wrap(raw, name, units))

    def dump(self, path: str | Path) -> None:
        """Write the spans as JSON lines, in completion order."""
        write_spans(path, as_dicts(list(self.spans)))


SPAN_FIELDS = ("id", "parent", "name", "parent_name", "thread", "start", "dur", "self", "units")


def write_spans(path: str | Path, spans: Iterable[dict[str, Any]]) -> None:
    with Path(path).open("w", encoding="utf-8") as out:
        for span in spans:
            out.write(json.dumps(span) + "\n")


def load_spans(path: str | Path) -> list[dict[str, Any]]:
    """Read a span JSONL file written by :meth:`Tracer.dump`."""
    with Path(path).open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def as_dicts(spans: Iterable[tuple]) -> list[dict[str, Any]]:
    return [dict(zip(SPAN_FIELDS, span)) for span in spans]


def within(spans: Iterable[dict[str, Any]], windows: Iterable[tuple[float, float]]) -> list[dict]:
    """Spans that start inside any of the ``(start, end)`` windows."""
    windows = list(windows)
    return [s for s in spans if any(lo <= s["start"] <= hi for lo, hi in windows)]


def rollup(spans: Iterable[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total self and inclusive seconds, units, max units."""
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "units": 0, "max_units": 0}
    )
    for span in spans:
        row = table[span["name"]]
        row["calls"] += 1
        row["self_s"] += span["self"]
        row["incl_s"] += span["dur"]
        row["units"] += span["units"]
        row["max_units"] = max(row["max_units"], span["units"])
    return dict(sorted(table.items()))


def self_by_parent(spans: Iterable[dict[str, Any]], name: str) -> dict[str, float]:
    """Self seconds of the ``name`` spans, split by the name of their parent span."""
    split: dict[str, float] = defaultdict(float)
    for span in spans:
        if span["name"] == name:
            split[span["parent_name"]] += span["self"]
    return dict(split)


def layer_rollup(table: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self seconds per layer (the span-name prefix before the first dot)."""
    layers: dict[str, float] = defaultdict(float)
    for name, row in table.items():
        layers[name.split(".", 1)[0]] += row["self_s"]
    return dict(sorted(layers.items()))
