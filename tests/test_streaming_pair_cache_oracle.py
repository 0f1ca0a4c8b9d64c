"""Differential oracle for the streaming pair cache.

The cache keys each pair by one int, and a compaction serves every dirty
block from one batched :meth:`PairStream.distances` call.  The reference
here is the design it replaced: a distance is ``PacketDistance`` on the
two packets (smaller index first, as in the condensed layout), and a
compaction fetches each block's matrix with its own cache call.  A seeded
sweep over arrival order, batch size and compaction cadence runs both
designs unbounded and with an LRU bound smaller than one compaction, at
one and two workers.  Everything must agree bit for bit, except that a
bound may change how many pairs were evaluated.
"""

import random
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.streaming import StreamingClusterer, StreamingConfig
from repro.distance.blocking import BlockingConfig
from repro.distance.engine import DistanceEngine
from repro.distance.packet import PacketDistance

THRESHOLD = 1.2
N_PACKETS = 80
#: Below the pair count of the larger compactions in this sweep.
BOUND = 40
#: Small chunks, so two-worker compactions reach the pool.
CHUNK_PAIRS = 16
#: Fields a pair-cache bound may change: how many pairs were evaluated.
EVALUATION_COUNTS = {"attach_pairs_evaluated", "compact_pairs_evaluated"}


class BlockByBlock(StreamingClusterer):
    """Reference: each dirty block's matrix comes from its own cache call."""

    def compact(self, *, full: bool = False) -> int:
        indices = range(len(self.stream)) if full else self._dirty
        roots = {self.blocker.find(index) for index in indices}
        pairs_before = self.stream.pairs_evaluated
        for root in sorted(roots):
            members = sorted(self.blocker.members(root))
            (matrix,) = self.stream.matrices([members])
            self._recluster(members, matrix)
        self.stats.compact_pairs_evaluated += self.stream.pairs_evaluated - pairs_before
        self.stats.compactions += 1
        self.stats.blocks_compacted += len(roots)
        self._dirty.clear()
        self._batches_since_compact = 0
        return len(roots)


@pytest.fixture(scope="module")
def packets(small_split):
    suspicious, __ = small_split
    return list(suspicious[:N_PACKETS])


@pytest.fixture(scope="module")
def reference_distance(packets):
    """``PacketDistance`` per pair of corpus positions, memoized across examples."""
    metric = PacketDistance.paper()
    memo: dict[tuple[int, int], float] = {}

    def distance(a: int, b: int) -> float:
        if (a, b) not in memo:
            memo[a, b] = metric.distance(packets[a], packets[b])
        return memo[a, b]

    return distance


def run(cls, arrivals, *, batch, compact_every, workers, bound, calls=None):
    """Stream ``arrivals``; returns the clusterer and its partition after each step."""
    metric = PacketDistance.paper()
    config = StreamingConfig(
        blocking=BlockingConfig(threshold=THRESHOLD),
        compact_every=compact_every,
        max_cached_pairs=bound,
    )
    clusterer = cls(
        metric, config,
        engine=DistanceEngine(metric, workers=workers, chunk_pairs=CHUNK_PAIRS),
    )
    if calls is not None:
        distances = clusterer.stream.distances

        def recording(pairs):
            values = distances(pairs)
            workers_used = clusterer.engine.stats.workers_used
            calls.append((np.asarray(pairs).tolist(), values, workers_used))
            return values

        clusterer.stream.distances = recording
    steps = []
    for start in range(0, len(arrivals), batch):
        clusterer.ingest(arrivals[start : start + batch])
        steps.append(clusterer.partition())
    clusterer.compact(full=True)
    steps.append(clusterer.partition())
    return clusterer, steps


def test_batched_compaction_matches_block_by_block(packets, reference_distance):
    # Hypothesis draws only the stream's shape; the packets are a fixture,
    # so a failing example reports three numbers, not the corpus.
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**16),
        batch=st.integers(6, 20),
        compact_every=st.integers(1, 3),
    )
    def check(seed, batch, compact_every):
        order = list(range(len(packets)))
        random.Random(seed).shuffle(order)
        arrivals = [packets[i] for i in order]
        shape = {"batch": batch, "compact_every": compact_every}

        reference, expected_steps = run(BlockByBlock, arrivals, workers=1, bound=None, **shape)
        for workers in (1, 2):
            for bound in (None, BOUND):
                calls: list = []
                clusterer, steps = run(
                    StreamingClusterer, arrivals,
                    workers=workers, bound=bound, calls=calls, **shape,
                )
                assert steps == expected_steps, (workers, bound)
                assert max(used for __, __, used in calls) == workers

                # Every value any call returned is the per-pair metric, bit for bit.
                for pairs, values, __ in calls:
                    for (i, j), value in zip(pairs, values.tolist()):
                        low, high = (order[i], order[j]) if i < j else (order[j], order[i])
                        assert value == reference_distance(low, high), (i, j)

                got, want = asdict(clusterer.stats), asdict(reference.stats)
                stream, ref_stream = clusterer.stream, reference.stream
                if bound is None:
                    assert got == want
                    assert stream.pairs_evaluated == ref_stream.pairs_evaluated
                    assert stream.cache_hits == ref_stream.cache_hits
                    assert stream.cached_pairs == ref_stream.cached_pairs
                    assert stream.evictions == 0
                else:
                    assert stream.cached_pairs <= bound
                    assert {k: v for k, v in got.items() if k not in EVALUATION_COUNTS} == {
                        k: v for k, v in want.items() if k not in EVALUATION_COUNTS
                    }
                    lookups = stream.pairs_evaluated + stream.cache_hits
                    assert lookups == ref_stream.pairs_evaluated + ref_stream.cache_hits
                    # The final full compaction alone asks for more pairs than fit.
                    assert len(calls[-1][0]) > bound

    check()
