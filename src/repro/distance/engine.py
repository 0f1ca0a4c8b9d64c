"""Parallel, cached distance-matrix engine — the §IV hot path.

Building the clustering input costs M(M-1)/2 evaluations of ``d_pkt``,
each of which runs three zlib compressions (the NCD content side) plus a
pure-Python FQDN edit distance.  :class:`DistanceEngine` accelerates that
build three ways, without changing a single output bit relative to the
serial :func:`repro.distance.matrix.distance_matrix` loop:

1. **Decomposition over unique field values.**  Real traffic repeats
   itself: a 200-packet sample typically carries ~10 distinct hosts, a
   handful of bodies, and one cookie jar.  For :class:`PacketDistance`
   metrics the engine deduplicates each packet field up front and caches
   every *component* distance per unique value pair, so the dominant
   host-Levenshtein cost drops from O(M²) to O(U²) for U unique hosts.
   Component caches return the exact floats a recomputation would, and
   the per-pair summation order mirrors ``PacketDistance.distance``
   literally, so results are bit-identical.
2. **Batch precomputation of single-string compressed lengths.**  All
   ``C(x)`` terms are filled once up front via
   :meth:`NcdCalculator.precompute` (in the parent, before any fan-out),
   leaving only the concatenated ``C(xy)`` terms for the pair loop.
3. **Multiprocessing fan-out.**  The condensed pair index space is cut
   into contiguous chunks of ``chunk_pairs`` pairs — the bounds depend on
   nothing else, so chunk spans and fault ledgers are the same at every
   worker count — and mapped over a worker pool.  The pool runs only
   when a batch holds at least two full chunks and two workers are
   available; every smaller batch runs in-process.  Below that a fork
   costs more than it saves: on a 2-vCPU host, two workers forced onto
   4,186–7,626 pairs ran at 0.73–0.78× serial, while at two full chunks
   and beyond they ran at 1.12× (8,256 pairs) to 1.83× (523,776).
   Workers receive the pre-serialized evaluator exactly once (pool
   initializer), not per pair; chunk results are reassembled in index
   order, so the output is deterministic and independent of worker
   count or scheduling.

The engine also supports **incremental extension**: given the condensed
matrix over M items, :meth:`DistanceEngine.extend` appends k new items by
computing only the k·M + k(k-1)/2 new pairs and splicing the old values
into the larger condensed layout — bit-identical to a full rebuild.
:class:`MatrixCache` packages that pattern for consumers that grow an
item population over time (``repro.core.incremental``).

Metrics that are not :class:`PacketDistance` instances fall back to a
generic per-pair evaluator (still chunked and parallelizable when the
metric pickles; serial — with ``EngineStats.fallback`` set to
``"unpicklable_metric"`` — when it does not, e.g. for lambdas).

**Worker-pool fault tolerance.**  Passing a
:class:`~repro.reliability.workerfaults.WorkerFaultPlan` switches the
engine into supervised dispatch: every chunk attempt may crash (result
lost), hang (charged the plan's logical-tick deadline, then declared
dead), or return poisoned values.  Crashed and hung chunks are
re-dispatched under the engine's :class:`~repro.reliability.retry.RetryPolicy`
with seeded backoff; poisoned chunks — detected by per-chunk integrity
checksums taken before the injection point — and chunks that exhaust
their retry budget are quarantined and recomputed serially in the
parent, which the plan never touches.  The invariant, asserted by tests
and the pipeline chaos sweep: a recovered run is **bit-identical** to a
fault-free run at any fault rate, worker count, or chunking.
"""

from __future__ import annotations

import contextlib
import hashlib
import multiprocessing
import os
import pickle
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.distance.blocking import BlockAssignment, BlockingConfig, assign_blocks
from repro.distance.destination import destination_distance
from repro.distance.matrix import CondensedMatrix
from repro.distance.ncd import CacheStats, NcdCalculator
from repro.distance.packet import PacketDistance
from repro.errors import DistanceError
from repro.obs import NULL_OBS, Observability
from repro.reliability.quarantine import Quarantine
from repro.reliability.retry import RetryPolicy
from repro.reliability.workerfaults import ChunkFaultKind, WorkerFaultPlan
from repro.simulation.rng import derive_rng

#: Condensed-index pairs per pool task.  Small enough to load-balance a
#: handful of workers, large enough that per-task IPC is negligible.
DEFAULT_CHUNK_PAIRS = 4096


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else ``os.cpu_count()``.

    Affinity-aware, so ``taskset`` and cgroup cpuset pinning are honoured
    (``os.cpu_count()`` reports every CPU of the machine).  A CPU-time
    quota that leaves the affinity set untouched is not visible here.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass(slots=True)
class EngineStats:
    """Machine-readable account of one engine run.

    Once ``workers_used > 1`` the cache counters (``pair_hits`` /
    ``pair_misses``, ``singles`` hits and misses, and the matching
    ``engine_pair_*`` / ``engine_singles_*`` obs counters) are not
    deterministic: every worker fills its own component cache, so the
    split between hits and misses depends on which worker took which
    chunk.  Their sum and every computed distance are unaffected.
    Callers whose committed artifacts include these counters run with
    ``workers=1``.
    """

    n_items: int = 0
    n_pairs: int = 0
    workers_requested: int = 1
    workers_used: int = 1
    chunks: int = 1
    mode: str = "generic"  # "packet" (decomposed fast path) or "generic"
    fallback: str | None = None
    fallback_detail: str | None = None
    pair_hits: int = 0
    pair_misses: int = 0
    chunks_retried: int = 0
    chunks_quarantined: int = 0
    faults_injected: int = 0
    recovered: bool = True
    n_blocks: int = 0
    pairs_pruned: int = 0
    singles: CacheStats = field(default_factory=CacheStats)

    @property
    def pair_lookups(self) -> int:
        return self.pair_hits + self.pair_misses

    @property
    def pair_hit_rate(self) -> float:
        """Fraction of component evaluations served from the pair cache."""
        return self.pair_hits / self.pair_lookups if self.pair_lookups else 0.0

    def to_dict(self) -> dict:
        return {
            "n_items": self.n_items,
            "n_pairs": self.n_pairs,
            "workers_requested": self.workers_requested,
            "workers_used": self.workers_used,
            "chunks": self.chunks,
            "mode": self.mode,
            "fallback": self.fallback,
            "fallback_detail": self.fallback_detail,
            "pair_hits": self.pair_hits,
            "pair_misses": self.pair_misses,
            "chunks_retried": self.chunks_retried,
            "chunks_quarantined": self.chunks_quarantined,
            "faults_injected": self.faults_injected,
            "recovered": self.recovered,
            "n_blocks": self.n_blocks,
            "pairs_pruned": self.pairs_pruned,
            "pair_hit_rate": round(self.pair_hit_rate, 4),
            "singles_hits": self.singles.hits,
            "singles_misses": self.singles.misses,
            "singles_precomputed": self.singles.precomputed,
            "singles_hit_rate": round(self.singles.hit_rate, 4),
        }


@dataclass(slots=True)
class _ChunkStats:
    """Cache-counter delta produced by one chunk evaluation."""

    pair_hits: int = 0
    pair_misses: int = 0
    singles_hits: int = 0
    singles_misses: int = 0


class _PacketEvaluator:
    """Decomposed ``d_pkt`` over unique field values, with component caches.

    Picklable: workers receive one instance (with the precomputed
    single-string length table inside its calculator) and fill their own
    component caches as their chunks demand.
    """

    def __init__(self, metric: PacketDistance, items: Sequence) -> None:
        self.destination_weight = metric.destination_weight
        self.content_weight = metric.content_weight
        self.registry = metric.registry
        content = metric.content
        self.use_rline = content.use_rline
        self.use_cookie = content.use_cookie
        self.use_body = content.use_body
        self.ncd = NcdCalculator(content.calculator.compressor, clamp=content.calculator.clamp)

        # Deduplicated per-packet field id tables, grown by add_items.
        self.destinations: list = []
        self.blobs: list[bytes] = []
        self._dest_ids: dict = {}
        self._blob_ids: dict[bytes, int] = {}
        self.dest_of: list[int] = []
        self.rline_of: list[int] = []
        self.cookie_of: list[int] = []
        self.body_of: list[int] = []

        # Component caches, filled on demand during chunk evaluation.
        self._dest_cache: dict[tuple[int, int], float] = {}
        self._ncd_cache: dict[tuple[int, int], float] = {}

        self.add_items(items)

    def add_items(self, items: Sequence) -> None:
        """Append ``items`` to the evaluated population.

        Incremental: only blobs not seen before are added to the id tables
        and get their ``C(x)`` precomputed, so a streaming consumer pays
        per *new unique value*, not per packet.  Existing item indices,
        cached components, and computed distances are untouched.
        """
        blob_ids = self._blob_ids
        dest_ids = self._dest_ids
        first_new_blob = len(self.blobs)

        def blob_id(blob: bytes) -> int:
            index = blob_ids.get(blob)
            if index is None:
                index = blob_ids[blob] = len(self.blobs)
                self.blobs.append(blob)
            return index

        for packet in items:
            destination = packet.destination
            index = dest_ids.get(destination)
            if index is None:
                index = dest_ids[destination] = len(self.destinations)
                self.destinations.append(destination)
            self.dest_of.append(index)
            self.rline_of.append(blob_id(packet.request_line.encode("latin-1")))
            self.cookie_of.append(blob_id(packet.cookie.encode("latin-1")))
            self.body_of.append(blob_id(packet.body))

        # C(x) for the new blobs only — workers inherit the warm table.
        if self.content_weight and len(self.blobs) > first_new_blob:
            self.ncd.precompute(self.blobs[first_new_blob:])

    def pairs(self, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, _ChunkStats]:
        """Evaluate ``d_pkt`` for each ``(rows[t], cols[t])`` pair."""
        out = np.empty(len(rows), dtype=float)
        stats = _ChunkStats()
        singles = self.ncd.stats
        singles_hits0, singles_misses0 = singles.hits, singles.misses
        dest_weight = self.destination_weight
        content_weight = self.content_weight
        dest_cache = self._dest_cache
        ncd_cache = self._ncd_cache
        destinations = self.destinations
        blobs = self.blobs
        ncd_distance = self.ncd.distance

        def ncd_component(id_x: int, id_y: int) -> float:
            # Ordered key: C(xy) depends on concatenation order, and the
            # serial loop always concatenates row-item first.
            key = (id_x, id_y)
            value = ncd_cache.get(key)
            if value is None:
                value = ncd_distance(blobs[id_x], blobs[id_y])
                ncd_cache[key] = value
                stats.pair_misses += 1
            else:
                stats.pair_hits += 1
            return value

        for t in range(len(rows)):
            i = int(rows[t])
            j = int(cols[t])
            total = 0.0
            if dest_weight:
                a, b = self.dest_of[i], self.dest_of[j]
                key = (a, b) if a <= b else (b, a)  # every component is symmetric
                dest = dest_cache.get(key)
                if dest is None:
                    dest = destination_distance(
                        destinations[a], destinations[b], registry=self.registry
                    )
                    dest_cache[key] = dest
                    stats.pair_misses += 1
                else:
                    stats.pair_hits += 1
                total += dest_weight * dest
            if content_weight:
                header = 0.0
                if self.use_rline:
                    header += ncd_component(self.rline_of[i], self.rline_of[j])
                if self.use_cookie:
                    header += ncd_component(self.cookie_of[i], self.cookie_of[j])
                if self.use_body:
                    header += ncd_component(self.body_of[i], self.body_of[j])
                total += content_weight * header
            if not np.isfinite(total) or total < 0:
                raise DistanceError(
                    f"metric returned invalid value {total!r} for pair ({i}, {j})"
                )
            out[t] = total
        stats.singles_hits = singles.hits - singles_hits0
        stats.singles_misses = singles.misses - singles_misses0
        return out, stats


class _GenericEvaluator:
    """Plain per-pair evaluation for arbitrary metrics (no decomposition)."""

    def __init__(self, metric: Callable, items: Sequence) -> None:
        self.metric = metric
        self.items = list(items)

    def add_items(self, items: Sequence) -> None:
        self.items.extend(items)

    def pairs(self, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, _ChunkStats]:
        out = np.empty(len(rows), dtype=float)
        metric = self.metric
        items = self.items
        for t in range(len(rows)):
            i = int(rows[t])
            j = int(cols[t])
            value = metric(items[i], items[j])
            if not np.isfinite(value) or value < 0:
                raise DistanceError(
                    f"metric returned invalid value {value!r} for pair ({i}, {j})"
                )
            out[t] = value
        return out, _ChunkStats()


@dataclass(slots=True)
class _WorkerState:
    """Everything a pool worker needs, shipped once via the initializer."""

    evaluator: object
    n_full: int | None  # condensed triu over n items …
    rows: np.ndarray | None  # … or an explicit pair list (extension mode)
    cols: np.ndarray | None
    plan: WorkerFaultPlan | None = None


_WORKER: _WorkerState | None = None


def _worker_init(payload: bytes) -> None:
    global _WORKER
    state: _WorkerState = pickle.loads(payload)
    if state.n_full is not None:
        state.rows, state.cols = np.triu_indices(state.n_full, k=1)
    _WORKER = state


def _worker_chunk(task: tuple[int, int]) -> tuple[np.ndarray, _ChunkStats]:
    start, stop = task
    assert _WORKER is not None
    return _WORKER.evaluator.pairs(_WORKER.rows[start:stop], _WORKER.cols[start:stop])


@dataclass(slots=True)
class _ChunkOutcome:
    """One supervised chunk-evaluation attempt, as reported to the dispatcher.

    ``checksum`` is taken over the honest result bytes *before* the poison
    injection point, so the dispatcher's integrity check catches silent
    corruption between compute and delivery.
    """

    chunk_index: int
    attempt: int
    kind: str  # ChunkFaultKind value
    values: np.ndarray | None
    stats: _ChunkStats | None
    checksum: str | None


def _evaluate_chunk(
    evaluator,
    plan: WorkerFaultPlan | None,
    rows: np.ndarray,
    cols: np.ndarray,
    chunk_index: int,
    start: int,
    stop: int,
    attempt: int,
) -> _ChunkOutcome:
    """Evaluate one chunk under (optional) fault injection.

    Runs identically in-process and inside pool workers; the fault outcome
    is a pure function of ``(plan.seed, chunk_index, attempt)``, so results
    are independent of where the call executes.
    """
    kind = plan.outcome(chunk_index, attempt) if plan is not None else ChunkFaultKind.NONE
    if kind in (ChunkFaultKind.CRASH, ChunkFaultKind.HANG):
        # The work is lost either way; computing it first would only burn
        # cycles without changing any observable output.
        return _ChunkOutcome(chunk_index, attempt, kind.value, None, None, None)
    values, stats = evaluator.pairs(rows[start:stop], cols[start:stop])
    checksum = _chunk_checksum(values)
    if kind is ChunkFaultKind.POISON:
        values = plan.corrupt(values, chunk_index, attempt)
    return _ChunkOutcome(chunk_index, attempt, kind.value, values, stats, checksum)


def _worker_supervised_chunk(task: tuple[int, int, int, int]) -> _ChunkOutcome:
    chunk_index, start, stop, attempt = task
    assert _WORKER is not None
    return _evaluate_chunk(
        _WORKER.evaluator, _WORKER.plan, _WORKER.rows, _WORKER.cols,
        chunk_index, start, stop, attempt,
    )


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class DistanceEngine:
    """Chunked, cached, optionally parallel pairwise-distance computation.

    :param metric: the pair metric (``PacketDistance`` unlocks the
        decomposed fast path; any callable works).
    :param workers: process count; ``0`` (default) means one per usable
        CPU (:func:`usable_cpus`), ``1`` always evaluates in-process.  A
        batch goes to the pool only when it holds at least two full
        chunks (see :meth:`_pool_size`).  Results are bit-identical for
        every worker count; the cache counters in :attr:`stats` are not
        (see :class:`EngineStats`).
    :param chunk_pairs: condensed-index pairs per chunk.  Chunk bounds
        depend on this alone, never on ``workers``.
    :param obs: optional observability bundle.  The engine emits one
        ``engine_chunk`` span per pool task (ticks advanced by pairs
        evaluated) and surfaces :class:`CacheStats` deltas as monotonic
        counters.  The bundle never crosses the process boundary — worker
        state is pickled before it is consulted — and computed values are
        bit-identical with or without it.
    :param fault_plan: optional seeded
        :class:`~repro.reliability.workerfaults.WorkerFaultPlan`.  When
        given, dispatch is supervised: crashed/hung chunks are re-dispatched
        under ``retry`` (seeded backoff, per-retry ``engine_chunk_retry``
        spans), poisoned or retry-exhausted chunks are quarantined and
        recomputed serially in the parent, and :attr:`stats` reports
        ``chunks_retried`` / ``chunks_quarantined`` / ``recovered``.
        Recovered results are bit-identical to a fault-free run.
    :param retry: re-dispatch budget and backoff for failed chunks
        (default: 3 attempts, deterministic exponential backoff).
    """

    def __init__(
        self,
        metric: Callable | None = None,
        *,
        workers: int = 0,
        chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
        obs: Observability | None = None,
        fault_plan: WorkerFaultPlan | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        if workers < 0:
            raise DistanceError(f"workers must be >= 0, got {workers}")
        if chunk_pairs < 1:
            raise DistanceError(f"chunk_pairs must be positive, got {chunk_pairs}")
        self.metric = metric if metric is not None else PacketDistance.paper()
        self.workers = workers or usable_cpus()
        self.chunk_pairs = chunk_pairs
        self.obs = obs or NULL_OBS
        self.fault_plan = fault_plan
        self.retry = retry or RetryPolicy(max_attempts=3, base_delay=1.0, multiplier=2.0, jitter=0.25)
        self.quarantine = Quarantine(capacity=64) if fault_plan is not None else None
        self.stats = EngineStats()

    # -- public API ---------------------------------------------------------------

    def matrix(
        self,
        items: Sequence,
        *,
        progress: Callable[[int, int], None] | None = None,
    ) -> CondensedMatrix:
        """All-pairs condensed matrix over ``items`` (order-preserving)."""
        n = len(items)
        total = n * (n - 1) // 2
        evaluator = self._build_evaluator(items)
        values = self._compute(
            evaluator, total, n_full=n, rows=None, cols=None, progress=progress
        )
        self.stats.n_items = n
        self.stats.n_pairs = total
        return CondensedMatrix(n, values)

    def extend(
        self,
        matrix: CondensedMatrix,
        items: Sequence,
        new_items: Sequence,
        *,
        progress: Callable[[int, int], None] | None = None,
    ) -> CondensedMatrix:
        """Append ``new_items`` to an existing matrix over ``items``.

        Computes only the ``k*M + k(k-1)/2`` pairs that involve a new item
        and splices ``matrix.values`` into the larger condensed layout;
        the result is bit-identical to a full rebuild over
        ``list(items) + list(new_items)``.

        :raises DistanceError: when ``matrix`` does not match ``items``.
        """
        n = len(items)
        if matrix.n != n:
            raise DistanceError(
                f"matrix covers {matrix.n} items but {n} were supplied"
            )
        k = len(new_items)
        if k == 0:
            return CondensedMatrix(n, matrix.values.copy())
        combined = list(items) + list(new_items)
        n_new = n + k

        # Old pairs keep their values; only their condensed indices shift.
        new_values = np.empty(n_new * (n_new - 1) // 2, dtype=float)
        if n > 1:
            old_rows, old_cols = np.triu_indices(n, k=1)
            new_values[_condensed_indices(old_rows, old_cols, n_new)] = matrix.values

        # The new pairs: every old x new, then new x new — computed with
        # the same evaluator a full rebuild would use.
        rows_on = np.repeat(np.arange(n), k)
        cols_on = np.tile(np.arange(n, n_new), n)
        rows_nn, cols_nn = np.triu_indices(k, k=1)
        rows = np.concatenate([rows_on, rows_nn + n])
        cols = np.concatenate([cols_on, cols_nn + n])

        evaluator = self._build_evaluator(combined)
        computed = self._compute(
            evaluator, len(rows), n_full=None, rows=rows, cols=cols, progress=progress
        )
        new_values[_condensed_indices(rows, cols, n_new)] = computed
        self.stats.n_items = n_new
        self.stats.n_pairs = len(rows)
        return CondensedMatrix(n_new, new_values)

    def blocked_matrix(
        self,
        items: Sequence,
        *,
        blocking: BlockingConfig,
        progress: Callable[[int, int], None] | None = None,
    ) -> tuple[CondensedMatrix, BlockAssignment]:
        """Condensed matrix computed only inside candidate blocks.

        Within-block pairs go through the same evaluator :meth:`matrix`
        uses (same row-major orientation, same caches) and are therefore
        bit-identical to a full build.  Cross-block pairs are never
        evaluated; their entries are set to ``blocking.fill_value(metric)``,
        above both the threshold and the metric ceiling, so any flat cut
        at or below ``blocking.threshold`` never sees them.  In
        ``BlockingMode.EXACT`` that cut is provably identical to cutting
        the full matrix (see :mod:`repro.distance.blocking`).
        """
        n = len(items)
        assignment = assign_blocks(items, self.metric, blocking)
        evaluator = self._build_evaluator(items)
        row_parts: list[np.ndarray] = []
        col_parts: list[np.ndarray] = []
        for block in assignment.blocks:
            if len(block) < 2:
                continue
            members = np.asarray(block, dtype=np.intp)
            local_rows, local_cols = np.triu_indices(len(members), k=1)
            row_parts.append(members[local_rows])
            col_parts.append(members[local_cols])
        if row_parts:
            rows = np.concatenate(row_parts)
            cols = np.concatenate(col_parts)
        else:
            rows = np.empty(0, dtype=np.intp)
            cols = np.empty(0, dtype=np.intp)

        with self.obs.span(
            "engine_blocked_matrix", track="engine",
            n_items=n, n_blocks=assignment.stats.n_blocks,
            pairs_within=assignment.stats.pairs_within,
        ):
            computed = self._compute(
                evaluator, len(rows), n_full=None, rows=rows, cols=cols,
                progress=progress,
            )
        values = np.full(
            n * (n - 1) // 2, blocking.fill_value(self.metric), dtype=float
        )
        if len(rows):
            values[_condensed_indices(rows, cols, n)] = computed
        self.stats.n_items = n
        self.stats.n_pairs = len(rows)
        self.stats.n_blocks = assignment.stats.n_blocks
        self.stats.pairs_pruned = assignment.stats.pairs_pruned
        self.obs.inc("engine_pairs_pruned", assignment.stats.pairs_pruned)
        self.obs.set_gauge("engine_blocks", assignment.stats.n_blocks)
        return CondensedMatrix(n, values), assignment

    # -- internals ----------------------------------------------------------------

    def _build_evaluator(self, items: Sequence):
        if isinstance(self.metric, PacketDistance):
            self.stats = EngineStats(mode="packet")
            evaluator = _PacketEvaluator(self.metric, items)
            self.stats.singles.precomputed = evaluator.ncd.stats.precomputed
            self.obs.inc("engine_singles_precomputed", evaluator.ncd.stats.precomputed)
            return evaluator
        self.stats = EngineStats(mode="generic")
        return _GenericEvaluator(self.metric, items)

    def _pool_size(self, total: int) -> int:
        """Processes a batch of ``total`` pairs is spread over (``<= 1``: in-process).

        The one routing rule: the pool runs iff this exceeds one, i.e. the
        batch holds at least two *full* chunks and two workers are
        available.  Counting only full chunks keeps a batch of one chunk
        plus a remainder (``chunk_pairs < total < 2 * chunk_pairs``)
        in-process: on a pool, one worker would do a whole chunk while the
        batch still paid for the fork.
        """
        return min(self.workers, total // self.chunk_pairs)

    def _compute(
        self,
        evaluator,
        total: int,
        *,
        n_full: int | None,
        rows: np.ndarray | None,
        cols: np.ndarray | None,
        progress: Callable[[int, int], None] | None,
    ) -> np.ndarray:
        self.stats.workers_requested = self.workers
        if total == 0:
            return np.empty(0, dtype=float)
        chunk = self.chunk_pairs
        tasks = [(start, min(start + chunk, total)) for start in range(0, total, chunk)]
        self.stats.chunks = len(tasks)
        workers = self._pool_size(total)

        payload: bytes | None = None
        if workers > 1:
            try:
                payload = pickle.dumps(
                    _WorkerState(
                        evaluator=evaluator, n_full=n_full, rows=rows, cols=cols,
                        plan=self.fault_plan,
                    )
                )
            except Exception as exc:  # unpicklable metric/items: stay serial
                self.stats.fallback = "unpicklable_metric"
                self.stats.fallback_detail = f"{exc.__class__.__name__}: {exc}"
                self.obs.inc("engine_fallback_unpicklable")
                workers = 1

        if self.fault_plan is not None:
            return self._compute_supervised(
                evaluator, tasks, total,
                n_full=n_full, rows=rows, cols=cols,
                workers=workers, payload=payload, progress=progress,
            )

        values = np.empty(total, dtype=float)
        if workers <= 1:
            self.stats.workers_used = 1
            if rows is None:
                rows, cols = np.triu_indices(n_full, k=1)
            done = 0
            for chunk_index, (start, stop) in enumerate(tasks):
                with self.obs.span(
                    "engine_chunk", track="engine", chunk=chunk_index, pairs=stop - start
                ):
                    chunk_values, delta = evaluator.pairs(rows[start:stop], cols[start:stop])
                    self.obs.advance(stop - start)
                values[start:stop] = chunk_values
                self._absorb(delta)
                done = stop
                if progress is not None:
                    progress(done, total)
            return values

        self.stats.workers_used = workers
        with _pool_context().Pool(
            processes=workers, initializer=_worker_init, initargs=(payload,)
        ) as pool:
            done = 0
            # Results arrive in task order (imap preserves it), so the
            # per-chunk spans are deterministic for a fixed chunking even
            # though workers race; the span brackets result collection.
            for chunk_index, ((start, stop), (chunk_values, delta)) in enumerate(
                zip(tasks, pool.imap(_worker_chunk, tasks))
            ):
                with self.obs.span(
                    "engine_chunk", track="engine", chunk=chunk_index, pairs=stop - start
                ):
                    self.obs.advance(stop - start)
                values[start:stop] = chunk_values
                self._absorb(delta)
                done = stop
                if progress is not None:
                    progress(done, total)
        return values

    def _compute_supervised(
        self,
        evaluator,
        tasks: list[tuple[int, int]],
        total: int,
        *,
        n_full: int | None,
        rows: np.ndarray | None,
        cols: np.ndarray | None,
        workers: int,
        payload: bytes | None,
        progress: Callable[[int, int], None] | None,
    ) -> np.ndarray:
        """Fault-tolerant chunk dispatch under :attr:`fault_plan`.

        Failed attempts are re-dispatched in rounds, in chunk-index order,
        so recovery is deterministic for a seed regardless of worker count
        or scheduling; quarantined chunks are recomputed serially in the
        parent, which the plan never touches.  The assembled matrix is
        bit-identical to a fault-free run.
        """
        plan = self.fault_plan
        assert plan is not None
        self.stats.recovered = False
        if rows is None:
            rows, cols = np.triu_indices(n_full, k=1)
        self.stats.workers_used = workers
        values = np.empty(total, dtype=float)
        done_pairs = 0
        pending = [(index, start, stop, 0) for index, (start, stop) in enumerate(tasks)]

        pool_cm = (
            _pool_context().Pool(
                processes=workers, initializer=_worker_init, initargs=(payload,)
            )
            if workers > 1
            else contextlib.nullcontext(None)
        )
        with pool_cm as pool:
            while pending:
                retry_round: list[tuple[int, int, int, int]] = []
                if pool is not None:
                    outcomes = pool.imap(_worker_supervised_chunk, pending)
                else:
                    outcomes = (
                        _evaluate_chunk(evaluator, plan, rows, cols, *task) for task in pending
                    )
                for task, outcome in zip(pending, outcomes):
                    chunk_index, start, stop, attempt = task
                    kind = ChunkFaultKind(outcome.kind)
                    plan.record(kind)
                    if kind is not ChunkFaultKind.NONE:
                        self.stats.faults_injected += 1
                        self.obs.inc("engine_faults_injected")

                    if outcome.values is None:
                        # CRASH (result lost) or HANG (deadline elapsed
                        # before the attempt was declared dead).
                        if kind is ChunkFaultKind.HANG:
                            self.obs.advance(plan.deadline_ticks)
                        if attempt + 1 < self.retry.max_attempts:
                            delay = self.retry.backoff(
                                attempt,
                                derive_rng(plan.seed, "engine-retry", str(chunk_index), str(attempt)),
                            )
                            with self.obs.span(
                                "engine_chunk_retry", track="engine",
                                chunk=chunk_index, attempt=attempt + 1, reason=kind.value,
                            ):
                                self.obs.advance(int(round(delay)))
                            self.stats.chunks_retried += 1
                            self.obs.inc("engine_chunks_retried")
                            retry_round.append((chunk_index, start, stop, attempt + 1))
                        else:
                            done_pairs += self._quarantine_and_recompute(
                                evaluator, values, rows, cols, chunk_index, start, stop,
                                attempt, reason=f"retry_budget_exhausted_{kind.value}",
                            )
                            if progress is not None:
                                progress(done_pairs, total)
                        continue

                    if _chunk_checksum(outcome.values) != outcome.checksum:
                        # Integrity violation — a poisoned (or genuinely
                        # corrupted) result.  Never retried through the
                        # plan: quarantine, then recompute where the plan
                        # cannot reach.
                        done_pairs += self._quarantine_and_recompute(
                            evaluator, values, rows, cols, chunk_index, start, stop,
                            attempt, reason="poisoned_chunk",
                        )
                        if progress is not None:
                            progress(done_pairs, total)
                        continue

                    with self.obs.span(
                        "engine_chunk", track="engine",
                        chunk=chunk_index, pairs=stop - start, attempt=attempt,
                    ):
                        self.obs.advance(stop - start)
                    values[start:stop] = outcome.values
                    self._absorb(outcome.stats)
                    done_pairs += stop - start
                    if progress is not None:
                        progress(done_pairs, total)
                pending = retry_round
        self.stats.recovered = True
        return values

    def _quarantine_and_recompute(
        self,
        evaluator,
        values: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        chunk_index: int,
        start: int,
        stop: int,
        attempt: int,
        *,
        reason: str,
    ) -> int:
        """Quarantine one failed chunk and recompute it serially in the parent."""
        self.stats.chunks_quarantined += 1
        self.obs.inc("engine_chunks_quarantined")
        if self.quarantine is not None:
            self.quarantine.add(
                DistanceError(f"chunk {chunk_index} failed at attempt {attempt}: {reason}"),
                payload=(chunk_index, start, stop),
                reason=reason,
            )
        with self.obs.span(
            "engine_chunk_recompute", track="engine",
            chunk=chunk_index, pairs=stop - start, reason=reason,
        ):
            chunk_values, delta = evaluator.pairs(rows[start:stop], cols[start:stop])
            self.obs.advance(stop - start)
        values[start:stop] = chunk_values
        self._absorb(delta)
        return stop - start

    def _absorb(self, delta: _ChunkStats) -> None:
        self.stats.pair_hits += delta.pair_hits
        self.stats.pair_misses += delta.pair_misses
        self.stats.singles.hits += delta.singles_hits
        self.stats.singles.misses += delta.singles_misses
        self.obs.inc("engine_pair_hits", delta.pair_hits)
        self.obs.inc("engine_pair_misses", delta.pair_misses)
        self.obs.inc("engine_singles_hits", delta.singles_hits)
        self.obs.inc("engine_singles_misses", delta.singles_misses)


def _chunk_checksum(values: np.ndarray) -> str:
    """Integrity checksum over one chunk's result bytes."""
    return hashlib.sha256(values.tobytes()).hexdigest()


def _condensed_indices(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Condensed (upper-triangle, row-major) index of each ``(i, j)`` pair."""
    return rows * n - rows * (rows + 1) // 2 + (cols - rows - 1)


def engine_matrix(
    items: Sequence,
    metric: Callable,
    *,
    workers: int = 0,
    progress: Callable[[int, int], None] | None = None,
) -> CondensedMatrix:
    """One-shot convenience wrapper: build a matrix through the engine."""
    return DistanceEngine(metric, workers=workers).matrix(items, progress=progress)


class MatrixCache:
    """A condensed matrix that grows with its item list.

    Consumers that accumulate packets over time (incremental consolidation,
    streaming re-clustering) call :meth:`add` with each new tranche; only
    the new-pair block is computed, via :meth:`DistanceEngine.extend`.
    """

    def __init__(self, engine: DistanceEngine | None = None) -> None:
        self.engine = engine or DistanceEngine()
        self.items: list = []
        self.matrix: CondensedMatrix | None = None

    def __len__(self) -> int:
        return len(self.items)

    def add(self, new_items: Sequence) -> CondensedMatrix:
        """Extend the cached matrix with ``new_items`` and return it."""
        new_items = list(new_items)
        if self.matrix is None:
            self.items = new_items
            self.matrix = self.engine.matrix(self.items)
        elif new_items:
            self.matrix = self.engine.extend(self.matrix, self.items, new_items)
            self.items.extend(new_items)
        return self.matrix

    def rebuild(self, items: Sequence) -> CondensedMatrix:
        """Replace the cached population outright (full recompute)."""
        self.items = list(items)
        self.matrix = self.engine.matrix(self.items)
        return self.matrix

    def prune(self, keep_indices: Sequence[int]) -> CondensedMatrix | None:
        """Restrict the cached population to ``items[keep_indices]``.

        The cached matrix is *gathered*, not recomputed — every surviving
        pair keeps its exact value — so a later :meth:`add` extends from
        the pruned state instead of rebuilding from scratch.
        """
        keep = list(keep_indices)
        self.items = [self.items[index] for index in keep]
        if self.matrix is not None:
            self.matrix = self.matrix.subset(keep)
        return self.matrix


class PairStream:
    """On-demand pair distances over a growing item population.

    Where :class:`MatrixCache` maintains the *full* condensed matrix,
    ``PairStream`` is the sparse companion for blocked/streaming
    clustering: it keeps one persistent evaluator (dedup id tables +
    warm ``C(x)`` cache, grown incrementally via ``add_items``) and an
    item-level pair cache, and computes only the pairs callers actually
    request — attach probes, then dirty-block matrices, with every pair
    evaluated at most once across both phases.

    Distances are bit-identical to the full-matrix build: pairs are
    always evaluated with the smaller index as the row item, matching
    the condensed layout's row-major concatenation order for NCD.

    :param max_cached_pairs: optional LRU bound on the pair cache.  Over
        an unbounded stream (e.g. arena rounds feeding misses forever)
        the cache would otherwise grow with every pair ever probed; with
        a bound, the least-recently-used pairs are evicted and simply
        recomputed (deterministically) if requested again, so capping
        the cache never changes any distance — only ``pairs_evaluated``.
    """

    def __init__(
        self,
        engine: DistanceEngine | None = None,
        *,
        max_cached_pairs: int | None = None,
    ) -> None:
        if max_cached_pairs is not None and max_cached_pairs < 1:
            raise ValueError("max_cached_pairs must be >= 1 when set")
        self.engine = engine or DistanceEngine()
        self.max_cached_pairs = max_cached_pairs
        self.items: list = []
        self._evaluator = None
        self._cache: dict[tuple[int, int], float] = {}
        self.pairs_evaluated = 0
        self.cache_hits = 0
        self.evictions = 0

    @property
    def cached_pairs(self) -> int:
        """Current number of pair distances held in the cache."""
        return len(self._cache)

    def _evict_over_cap(self) -> None:
        if self.max_cached_pairs is None:
            return
        while len(self._cache) > self.max_cached_pairs:
            # dict preserves insertion order; hits re-insert (LRU order).
            self._cache.pop(next(iter(self._cache)))
            self.evictions += 1

    def __len__(self) -> int:
        return len(self.items)

    def extend(self, new_items: Sequence) -> None:
        """Append ``new_items`` to the population (indices keep counting up)."""
        new_items = list(new_items)
        if not new_items:
            return
        if self._evaluator is None:
            self.items = new_items
            self._evaluator = self.engine._build_evaluator(self.items)
        else:
            self._evaluator.add_items(new_items)
            self.items.extend(new_items)

    def distance(self, i: int, j: int) -> float:
        """Distance between items ``i`` and ``j`` (cached)."""
        if i == j:
            return 0.0
        return float(self.distances([(i, j)])[0])

    def distances(self, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
        """Distances for ``pairs``; only cache misses are evaluated.

        Miss batches the engine would spread over a pool (see
        :meth:`DistanceEngine._pool_size`) go through its chunked
        dispatch; all others are evaluated in-process on the persistent
        evaluator, whose component caches they warm.
        """
        out = np.empty(len(pairs), dtype=float)
        missing: list[tuple[int, int]] = []
        missing_pos: list[int] = []
        for t, (i, j) in enumerate(pairs):
            if i == j:  # diagonal, by the matrix convention
                out[t] = 0.0
                continue
            key = (i, j) if i < j else (j, i)
            value = self._cache.get(key)
            if value is None:
                missing.append(key)
                missing_pos.append(t)
            else:
                if self.max_cached_pairs is not None:
                    # Refresh recency so hot pairs survive eviction.
                    self._cache[key] = self._cache.pop(key)
                out[t] = value
                self.cache_hits += 1
        if missing:
            rows = np.fromiter((k[0] for k in missing), dtype=np.intp, count=len(missing))
            cols = np.fromiter((k[1] for k in missing), dtype=np.intp, count=len(missing))
            if self.engine._pool_size(len(missing)) > 1:
                values = self.engine._compute(
                    self._evaluator, len(rows),
                    n_full=None, rows=rows, cols=cols, progress=None,
                )
            else:
                values, delta = self._evaluator.pairs(rows, cols)
                self.engine._absorb(delta)
            for key, pos, value in zip(missing, missing_pos, values):
                self._cache[key] = float(value)
                out[pos] = value
            self.pairs_evaluated += len(missing)
            self._evict_over_cap()
        return out

    def matrix(self, indices: Sequence[int]) -> CondensedMatrix:
        """Condensed matrix over ``items[indices]`` (cache-backed).

        Used for dirty-block compaction: pairs already probed during
        attach are served from the cache; only the rest are evaluated.
        """
        picked = list(indices)
        m = len(picked)
        if m < 2:
            return CondensedMatrix(m, np.empty(0, dtype=float))
        local_rows, local_cols = np.triu_indices(m, k=1)
        pairs = [
            (picked[a], picked[b])
            for a, b in zip(local_rows.tolist(), local_cols.tolist())
        ]
        return CondensedMatrix(m, self.distances(pairs))
