"""Parallel, cached distance-matrix engine — the §IV hot path.

Building the clustering input costs M(M-1)/2 evaluations of ``d_pkt``,
each of which runs three zlib compressions (the NCD content side) plus a
pure-Python FQDN edit distance.  :class:`DistanceEngine` accelerates that
build three ways, without changing a single output bit relative to the
serial :func:`repro.distance.matrix.distance_matrix` loop:

1. **Decomposition over unique field values.**  Real traffic repeats
   itself: a 200-packet sample typically carries ~10 distinct hosts, a
   handful of bodies, and one cookie jar.  The engine deduplicates each
   packet field up front and caches every *component* distance per
   unique value pair, so the dominant host-Levenshtein cost drops from
   O(M²) to O(U²) for U unique hosts.  Component caches return the exact
   floats a recomputation would, and the per-pair summation order mirrors
   ``PacketDistance.distance`` literally, so results are bit-identical.
   The metric must therefore be a :class:`PacketDistance`; every variant
   of one pickles, so every batch can go to the pool.
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

**One dispatcher, with worker-pool fault tolerance.**  Every chunk, in
the parent or in a worker, goes through one evaluation step that
checksums its result before delivery (a batch of one chunk without a
fault plan, which can neither fail nor be corrupted, is evaluated
directly).  Passing a
:class:`~repro.reliability.workerfaults.WorkerFaultPlan` lets that step
inject faults: a chunk attempt may crash (result lost), hang (charged the
plan's logical-tick deadline, then declared dead), or return poisoned
values.  Crashed and hung chunks are re-dispatched under the engine's
:class:`~repro.reliability.retry.RetryPolicy` with seeded backoff;
poisoned chunks — caught by the checksum, which is taken before the
injection point — and chunks that exhaust their retry budget are
quarantined and recomputed serially in the parent, which the plan never
touches.  Without a plan nothing is injected and every chunk is
delivered on its first attempt.  The invariant, asserted by tests and
the pipeline chaos sweep: a recovered run is **bit-identical** to a
fault-free run at any fault rate, worker count, or chunking.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import math
import multiprocessing
import os
import pickle
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

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

#: A cached pair of ids ``i <= j`` is the one int ``(i << 32) | j``: the
#: low bits hold ``j``, so ids stay below ``2**32``.
_PAIR_SHIFT = 32
_LOW_MASK = (1 << _PAIR_SHIFT) - 1


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
    pair_hits: int = 0
    pair_misses: int = 0
    chunks_retried: int = 0
    chunks_quarantined: int = 0
    faults_injected: int = 0
    recovered: bool = True
    singles: CacheStats = field(default_factory=CacheStats)

    @property
    def pair_lookups(self) -> int:
        return self.pair_hits + self.pair_misses

    @property
    def pair_hit_rate(self) -> float:
        """Fraction of component evaluations served from the pair cache."""
        return self.pair_hits / self.pair_lookups if self.pair_lookups else 0.0


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

        # Component caches, filled on demand during chunk evaluation and
        # keyed like the pair cache: one int per id pair (no tuple to
        # allocate per lookup, nothing for the garbage collector to track).
        self._dest_cache: dict[int, float] = {}
        self._ncd_cache: dict[int, float] = {}

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
            key = (id_x << _PAIR_SHIFT) | id_y
            value = ncd_cache.get(key)
            if value is None:
                value = ncd_distance(blobs[id_x], blobs[id_y])
                ncd_cache[key] = value
                stats.pair_misses += 1
            else:
                stats.pair_hits += 1
            return value

        out: list[float] = []
        for i, j in zip(rows.tolist(), cols.tolist()):
            total = 0.0
            if dest_weight:
                a, b = self.dest_of[i], self.dest_of[j]
                # every component is symmetric
                key = (a << _PAIR_SHIFT) | b if a <= b else (b << _PAIR_SHIFT) | a
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
            if not math.isfinite(total) or total < 0:
                raise DistanceError(
                    f"metric returned invalid value {total!r} for pair ({i}, {j})"
                )
            out.append(total)
        stats.singles_hits = singles.hits - singles_hits0
        stats.singles_misses = singles.misses - singles_misses0
        return np.array(out, dtype=float), stats


@dataclass(slots=True)
class _WorkerState:
    """Everything a pool worker needs, shipped once via the initializer."""

    evaluator: _PacketEvaluator
    n_full: int | None  # condensed triu over n items …
    rows: np.ndarray | None  # … or an explicit pair list (PairStream)
    cols: np.ndarray | None
    plan: WorkerFaultPlan | None


_WORKER: _WorkerState | None = None


def _worker_init(payload: bytes) -> None:
    global _WORKER
    state: _WorkerState = pickle.loads(payload)
    if state.n_full is not None:
        state.rows, state.cols = np.triu_indices(state.n_full, k=1)
    _WORKER = state


@dataclass(slots=True)
class _ChunkOutcome:
    """One chunk-evaluation attempt, as reported to the dispatcher.

    ``checksum`` is taken over the honest result bytes *before* the poison
    injection point, so the dispatcher's integrity check catches silent
    corruption between compute and delivery.
    """

    kind: ChunkFaultKind
    values: np.ndarray | None
    stats: _ChunkStats | None
    checksum: str | None


def _evaluate_chunk(
    evaluator: _PacketEvaluator,
    plan: WorkerFaultPlan | None,
    rows: np.ndarray,
    cols: np.ndarray,
    chunk_index: int,
    start: int,
    stop: int,
    attempt: int,
) -> _ChunkOutcome:
    """Evaluate one chunk attempt under the (optional) fault plan.

    Runs identically in-process and inside pool workers; the fault outcome
    is a pure function of ``(plan.seed, chunk_index, attempt)``, so results
    are independent of where the call executes.
    """
    kind = plan.outcome(chunk_index, attempt) if plan is not None else ChunkFaultKind.NONE
    if kind in (ChunkFaultKind.CRASH, ChunkFaultKind.HANG):
        # The work is lost either way; computing it first would only burn
        # cycles without changing any observable output.
        return _ChunkOutcome(kind, None, None, None)
    values, stats = evaluator.pairs(rows[start:stop], cols[start:stop])
    checksum = _chunk_checksum(values)
    if kind is ChunkFaultKind.POISON:
        values = plan.corrupt(values, chunk_index, attempt)
    return _ChunkOutcome(kind, values, stats, checksum)


def _worker_chunk(task: tuple[int, int, int, int]) -> _ChunkOutcome:
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

    :param metric: the packet metric (default: the paper's ``d_pkt``).
        Any other kind of metric raises :class:`DistanceError`.
    :param workers: process count; ``0`` (default) means one per usable
        CPU (:func:`usable_cpus`), ``1`` always evaluates in-process.  A
        batch goes to the pool only when it holds at least two full
        chunks (see :meth:`_pool_size`).  Results are bit-identical for
        every worker count; the cache counters in :attr:`stats` are not
        (see :class:`EngineStats`).
    :param chunk_pairs: condensed-index pairs per chunk.  Chunk bounds
        depend on this alone, never on ``workers``.
    :param obs: optional observability bundle.  The engine emits one
        ``engine_chunk`` span per delivered chunk (ticks advanced by pairs
        evaluated) and surfaces :class:`CacheStats` deltas as monotonic
        counters.  The bundle never crosses the process boundary — worker
        state is pickled before it is consulted — and computed values are
        bit-identical with or without it.
    :param fault_plan: optional seeded
        :class:`~repro.reliability.workerfaults.WorkerFaultPlan` whose
        faults the dispatcher injects and recovers from: crashed/hung
        chunks are re-dispatched under ``retry`` (seeded backoff,
        per-retry ``engine_chunk_retry`` spans), poisoned or
        retry-exhausted chunks are quarantined and recomputed serially in
        the parent, and :attr:`stats` reports ``chunks_retried`` /
        ``chunks_quarantined`` / ``recovered``.  Recovered results are
        bit-identical to a fault-free run.
    :param retry: re-dispatch budget and backoff for failed chunks
        (default: 3 attempts, deterministic exponential backoff).
    """

    def __init__(
        self,
        metric: PacketDistance | None = None,
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
        if metric is not None and not isinstance(metric, PacketDistance):
            raise DistanceError(
                f"metric must be a PacketDistance, got {type(metric).__name__}"
            )
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

    # -- internals ----------------------------------------------------------------

    def _build_evaluator(self, items: Sequence) -> _PacketEvaluator:
        self.stats = EngineStats()
        evaluator = _PacketEvaluator(self.metric, items)
        self.stats.singles.precomputed = evaluator.ncd.stats.precomputed
        self.obs.inc("engine_singles_precomputed", evaluator.ncd.stats.precomputed)
        return evaluator

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
        evaluator: _PacketEvaluator,
        total: int,
        *,
        n_full: int | None,
        rows: np.ndarray | None,
        cols: np.ndarray | None,
        progress: Callable[[int, int], None] | None,
    ) -> np.ndarray:
        """Evaluate ``total`` pairs chunk by chunk, in-process or on the pool.

        The pairs are the condensed triu over ``n_full`` items, or the
        explicit ``rows``/``cols`` list.  Each round dispatches the pending
        ``(chunk, start, stop, attempt)`` tasks in chunk-index order; a
        crashed or hung attempt joins the next round under :attr:`retry`,
        and a poisoned or retry-exhausted chunk is recomputed serially in
        the parent, which the fault plan never touches.  Recovery is thus
        deterministic for a seed regardless of worker count or scheduling,
        and without a plan every chunk is delivered in the first round.

        One chunk without a plan is evaluated straight away, with the span,
        counters and stats the loop would give it: in-process and with
        nothing injected, no attempt can fail and no result can change
        between compute and delivery, so there is nothing to retry or
        checksum.  Attach-sized ``PairStream`` batches take this path about
        2,000 times per ``stream`` run, where the loop's fixed cost (some
        15 µs a call between other work) showed in the batch latency.
        """
        self.stats.workers_requested = self.workers
        if total == 0:
            return np.empty(0, dtype=float)
        chunk = self.chunk_pairs
        if total <= chunk and self.fault_plan is None:
            if rows is None:
                rows, cols = np.triu_indices(n_full, k=1)
            self.stats.chunks = self.stats.workers_used = 1
            values, delta = evaluator.pairs(rows, cols)
            with self.obs.span("engine_chunk", track="engine", chunk=0, pairs=total):
                self.obs.advance(total)
            self._absorb(delta)
            if progress is not None:
                progress(total, total)
            self.stats.recovered = True
            return values
        pending = [
            (index, start, min(start + chunk, total), 0)
            for index, start in enumerate(range(0, total, chunk))
        ]
        self.stats.chunks = len(pending)
        workers = self._pool_size(total)
        self.stats.workers_used = max(workers, 1)
        self.stats.recovered = False
        plan = self.fault_plan
        values = np.empty(total, dtype=float)
        done_pairs = 0

        if workers > 1:
            # Workers build the triu themselves; the parent builds it only
            # if a chunk has to be recomputed here.
            payload = pickle.dumps(_WorkerState(evaluator, n_full, rows, cols, plan))
            pool_cm = _pool_context().Pool(
                processes=workers, initializer=_worker_init, initargs=(payload,)
            )
        else:
            if rows is None:
                rows, cols = np.triu_indices(n_full, k=1)
            pool_cm = contextlib.nullcontext(None)
        with pool_cm as pool:
            while pending:
                retry_round: list[tuple[int, int, int, int]] = []
                if pool is not None:
                    # imap preserves task order, so the per-chunk spans are
                    # deterministic for a fixed chunking though workers race.
                    outcomes = pool.imap(_worker_chunk, pending)
                else:
                    outcomes = (
                        _evaluate_chunk(evaluator, plan, rows, cols, *task) for task in pending
                    )
                for task, outcome in zip(pending, outcomes):
                    chunk_index, start, stop, attempt = task
                    kind = outcome.kind
                    if plan is not None:
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
                            continue
                        reason = f"retry_budget_exhausted_{kind.value}"
                    elif _chunk_checksum(outcome.values) != outcome.checksum:
                        # Integrity violation — a poisoned (or genuinely
                        # corrupted) result.  Never retried through the
                        # plan: quarantine, then recompute where the plan
                        # cannot reach.
                        reason = "poisoned_chunk"
                    else:
                        reason = None

                    if reason is None:
                        with self.obs.span(
                            "engine_chunk", track="engine", chunk=chunk_index, pairs=stop - start
                        ):
                            self.obs.advance(stop - start)
                        values[start:stop] = outcome.values
                        self._absorb(outcome.stats)
                    else:
                        if rows is None:
                            rows, cols = np.triu_indices(n_full, k=1)
                        self._quarantine_and_recompute(
                            evaluator, values, rows, cols, chunk_index, start, stop,
                            attempt, reason=reason,
                        )
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
    ) -> None:
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


#: Key of a diagonal pair: no real pair has it, so it is never cached.
_DIAGONAL = -1
#: Lookup default that marks a miss (identity-compared; cached values are finite).
_MISS = float("nan")


def _pair_keys(pairs: np.ndarray) -> list[int]:
    """Cache keys of an ``(n, 2)`` pair array, diagonal pairs as ``_DIAGONAL``."""
    pairs = pairs.astype(np.int64, copy=False)
    low = pairs.min(axis=1)
    high = pairs.max(axis=1)
    diagonal = low == high
    low <<= _PAIR_SHIFT
    low |= high
    low[diagonal] = _DIAGONAL
    return low.tolist()


class PairStream:
    """On-demand pair distances over a growing item population.

    ``PairStream`` serves blocked/streaming clustering, which never needs
    the full condensed matrix: it keeps one persistent evaluator (dedup id
    tables + warm ``C(x)`` cache, grown incrementally via ``add_items``)
    and an item-level pair cache, and computes only the pairs callers
    actually request — attach probes, then dirty-block matrices, with every pair
    evaluated at most once across both phases.

    Distances are bit-identical to the full-matrix build: pairs are
    always evaluated with the smaller index as the row item, matching
    the condensed layout's row-major concatenation order for NCD.

    The cache maps one int per pair, ``(i << 32) | j`` with ``i < j``, to
    its distance.  A :meth:`distances` call looks all its keys up in one
    pass, evaluates every miss as one batch through
    :meth:`DistanceEngine._compute` (in-process, or on the pool when the
    batch holds two full chunks, under the engine's fault plan either
    way), and writes the misses back with one ``dict.update``.
    :meth:`matrices` serves several blocks from one such call, so a
    streaming compaction sends all its dirty blocks' misses as one batch.

    :param max_cached_pairs: optional LRU bound on the pair cache.  Over
        an unbounded stream (e.g. arena rounds feeding misses forever)
        the cache would otherwise grow with every pair ever probed.  With
        a bound, each call first refreshes its hits in call order, then
        appends its misses, then evicts the least recently used pairs
        down to the bound; an evicted pair is recomputed, to the same
        bits, if it is requested again.  A bound therefore never changes a
        distance, or a partition built from them: only ``pairs_evaluated``
        may differ, and with it ``cache_hits`` and ``evictions``, which
        count where each value came from.
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
        self._cache: dict[int, float] = {}
        self.pairs_evaluated = 0
        self.cache_hits = 0
        self.evictions = 0

    @property
    def cached_pairs(self) -> int:
        """Current number of pair distances held in the cache."""
        return len(self._cache)

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

    def distances(self, pairs: Sequence[tuple[int, int]] | np.ndarray) -> np.ndarray:
        """Distances for ``pairs``; only cache misses are evaluated.

        :param pairs: ``(i, j)`` item-index pairs, as a sequence of tuples
            or an ``(n, 2)`` integer array (keyed without a Python loop).
            A diagonal pair is ``0.0`` by the matrix convention and is
            neither evaluated nor cached.
        """
        cache = self._cache
        if isinstance(pairs, np.ndarray):
            keys = _pair_keys(pairs)
        else:
            keys = [
                (i << _PAIR_SHIFT) | j if i < j else (j << _PAIR_SHIFT) | i if i > j else _DIAGONAL
                for i, j in pairs
            ]
        get = cache.get
        found = [get(key, _MISS) for key in keys]
        missed = [t for t, value in enumerate(found) if value is _MISS]
        if self.max_cached_pairs is not None:
            # Refresh recency in call order so hot pairs survive eviction.
            for key, value in zip(keys, found):
                if value is not _MISS:
                    cache[key] = cache.pop(key)
        self.cache_hits += len(keys) - len(missed)
        missed_keys = keys if len(missed) == len(keys) else [keys[t] for t in missed]
        if _DIAGONAL in missed_keys:
            for t in missed:
                if keys[t] == _DIAGONAL:
                    found[t] = 0.0
            missed = [t for t in missed if keys[t] != _DIAGONAL]
            missed_keys = [key for key in missed_keys if key != _DIAGONAL]
        if not missed:
            return np.array(found, dtype=float)
        # The hits are copied out now, so the per-pair lists of a large
        # call are freed before the cache grows.
        out = np.array(found, dtype=float) if len(missed) < len(keys) else None
        del keys, found

        packed = np.array(missed_keys, dtype=np.int64)
        values = self.engine._compute(
            self._evaluator, len(packed), n_full=None,
            rows=packed >> _PAIR_SHIFT, cols=packed & _LOW_MASK, progress=None,
        )
        cache.update(zip(missed_keys, values.tolist()))
        self.pairs_evaluated += len(missed)
        if self.max_cached_pairs is not None and len(cache) > self.max_cached_pairs:
            excess = len(cache) - self.max_cached_pairs
            # dict order is recency order: the oldest entries come first.
            for key in list(itertools.islice(cache, excess)):
                del cache[key]
            self.evictions += excess
        if out is None:
            return values
        out[missed] = values
        return out

    def matrices(self, blocks: Sequence[Sequence[int]]) -> list[CondensedMatrix]:
        """Condensed matrices over ``items[block]``, one per block (cache-backed).

        Every block's pairs go to one :meth:`distances` call, so their
        misses form one batch: a streaming compaction fills all its dirty
        blocks with at most one pool start.  Pairs already probed during
        attach are served from the cache.
        """
        sizes = [len(block) * (len(block) - 1) // 2 for block in blocks]
        bounds = np.cumsum([0, *sizes]).tolist()
        pairs = np.empty((bounds[-1], 2), dtype=np.int64)
        for block, lo, hi in zip(blocks, bounds, bounds[1:]):
            picked = np.asarray(block, dtype=np.int64)
            local_rows, local_cols = np.triu_indices(len(picked), k=1)
            pairs[lo:hi, 0] = picked[local_rows]
            pairs[lo:hi, 1] = picked[local_cols]
        values = self.distances(pairs)
        return [
            CondensedMatrix(len(block), values[lo:hi])
            for block, lo, hi in zip(blocks, bounds, bounds[1:])
        ]
