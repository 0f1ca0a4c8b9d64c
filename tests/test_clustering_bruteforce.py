"""Brute-force verification of the clustering algorithm.

The library computes group-average linkage with the Lance-Williams
recurrence; the paper defines it as the literal double sum

    d_group(Cx, Cy) = (1/|Cx||Cy|) * sum_{p in Cx} sum_{q in Cy} d(p, q).

This suite re-implements agglomeration naively from that definition and
checks the optimized version produces the identical merge tree — heights
and cluster memberships — on random inputs.

It also keeps the full-scan merge loop that the cached row-minimum search
replaced, as :func:`reference_agglomerate`.  Both share the Lance-Williams
update, so they must agree merge for merge, to the last bit of every
height, for every linkage and on tie-heavy inputs too.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.dendrogram import Dendrogram, Merge
from repro.clustering.linkage import Linkage, _lance_williams_update, agglomerate
from repro.distance.engine import DistanceEngine
from repro.distance.matrix import CondensedMatrix, distance_matrix
from repro.distance.packet import PacketDistance
from repro.errors import ClusteringError


def reference_agglomerate(
    matrix: CondensedMatrix, linkage: Linkage = Linkage.GROUP_AVERAGE
) -> Dendrogram:
    """Agglomeration by a full scan of the working matrix at every merge.

    Each step copies the n x n matrix, masks inactive slots and takes the
    first ``argmin``: the lexicographically smallest closest pair.  O(n^2)
    per merge; kept only as the oracle for :func:`agglomerate`.
    """
    n = matrix.n
    if n < 1:
        raise ClusteringError("cannot cluster zero items")
    if n == 1:
        return Dendrogram(1, [])

    # Working square matrix of current cluster distances. Inactive rows are
    # masked with +inf. node_ids[i] holds the *node id* for slot i.
    square = matrix.to_square()
    np.fill_diagonal(square, np.inf)
    sizes = np.ones(n, dtype=int)
    node_ids = np.arange(n)
    active = np.ones(n, dtype=bool)
    merges: list[Merge] = []

    for step in range(n - 1):
        slot_x, slot_y = _nearest_active_pair(square, active)
        height = float(square[slot_x, slot_y])
        size_x = int(sizes[slot_x])
        size_y = int(sizes[slot_y])
        new_size = size_x + size_y
        merges.append(
            Merge(
                left=int(node_ids[slot_x]),
                right=int(node_ids[slot_y]),
                height=height,
                size=new_size,
            )
        )
        # Merge y into x's slot; deactivate y.
        _lance_williams_update(square, active, slot_x, slot_y, size_x, size_y, sizes, linkage)
        sizes[slot_x] = new_size
        node_ids[slot_x] = n + step
        active[slot_y] = False
        square[slot_y, :] = np.inf
        square[:, slot_y] = np.inf

    return Dendrogram(n, merges)


def _nearest_active_pair(square: np.ndarray, active: np.ndarray) -> tuple[int, int]:
    """Indices of the closest active pair, smallest-id tie break."""
    masked = square.copy()
    inactive = ~active
    masked[inactive, :] = np.inf
    masked[:, inactive] = np.inf
    flat = int(np.argmin(masked))
    i, j = divmod(flat, masked.shape[1])
    if not np.isfinite(masked[i, j]):
        raise ClusteringError("no active pair remains")
    return (i, j) if i < j else (j, i)


def merge_tuples(dendrogram: Dendrogram) -> list[tuple[int, int, float, int]]:
    return [(m.left, m.right, m.height, m.size) for m in dendrogram.merges]


def assert_same_merges_as_reference(matrix: CondensedMatrix) -> None:
    for linkage in Linkage:
        ours = merge_tuples(agglomerate(matrix, linkage))
        reference = merge_tuples(reference_agglomerate(matrix, linkage))
        assert ours == reference, linkage


def condensed_from_seed(n: int, seed: int, *, tie_levels: int | None) -> CondensedMatrix:
    """Random condensed distances; multiples of 0.25 when ``tie_levels`` is set."""
    rng = np.random.default_rng(seed)
    size = n * (n - 1) // 2
    if tie_levels is None:
        values = rng.uniform(0.0, 10.0, size)
    else:
        values = rng.integers(0, tie_levels, size) * 0.25
    return CondensedMatrix(n, values)


class TestAgainstReferenceLoop:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 80), st.integers(0, 2**32 - 1))
    def test_continuous_values(self, n, seed):
        assert_same_merges_as_reference(condensed_from_seed(n, seed, tie_levels=None))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 80), st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_tie_heavy_values(self, n, seed, tie_levels):
        assert_same_merges_as_reference(condensed_from_seed(n, seed, tie_levels=tie_levels))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 12).flatmap(
            lambda n: st.lists(
                st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                min_size=n * (n - 1) // 2,
                max_size=n * (n - 1) // 2,
            ).map(lambda values: CondensedMatrix(n, np.asarray(values, dtype=float)))
        )
    )
    def test_small_tied_matrices(self, matrix):
        assert_same_merges_as_reference(matrix)

    def test_engine_matrix(self, small_split):
        suspicious, __ = small_split
        packets = list(suspicious[:200])
        assert len(packets) == 200
        matrix = DistanceEngine(PacketDistance.paper()).matrix(packets)
        assert np.unique(matrix.values).size < matrix.values.size  # real ties
        assert_same_merges_as_reference(matrix)


def brute_force_group_average(points):
    """Naive agglomeration straight from the paper's definition.

    Returns the merge heights, the partition trajectory as frozensets
    (order-independent comparison material), and the smallest gap seen
    between the best and runner-up candidate merge across all rounds.
    A tiny gap means the merge choice is decided by float noise — the
    optimized recurrence may legitimately pick the other pair, so
    callers should skip exact comparisons in that regime.
    """

    def d(a, b):
        return abs(a - b)

    clusters: list[list[int]] = [[i] for i in range(len(points))]
    heights: list[float] = []
    partitions: list[set[frozenset]] = []
    min_gap = float("inf")
    while len(clusters) > 1:
        best = None
        runner_up = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                total = sum(
                    d(points[p], points[q]) for p in clusters[i] for q in clusters[j]
                )
                avg = total / (len(clusters[i]) * len(clusters[j]))
                if best is None or avg < best[0]:
                    runner_up = best[0] if best is not None else None
                    best = (avg, i, j)
                elif runner_up is None or avg < runner_up:
                    runner_up = avg
        avg, i, j = best
        if runner_up is not None:
            min_gap = min(min_gap, runner_up - avg)
        heights.append(avg)
        merged = clusters[i] + clusters[j]
        clusters = [c for k, c in enumerate(clusters) if k not in (i, j)]
        clusters.append(merged)
        partitions.append({frozenset(c) for c in clusters})
    return heights, partitions, min_gap


# Below this, best and runner-up candidate merges are indistinguishable at
# float precision: either merge order is a valid group-average dendrogram,
# so exact-match assertions are skipped.
AMBIGUITY_GAP = 1e-9


class TestAgainstBruteForce:
    def test_known_sequence(self):
        points = [0.0, 1.0, 5.0, 6.5, 20.0]
        matrix = distance_matrix(points, lambda a, b: abs(a - b))
        dendrogram = agglomerate(matrix, Linkage.GROUP_AVERAGE)
        brute_heights, __, __gap = brute_force_group_average(points)
        ours = [m.height for m in dendrogram.merges]
        assert all(abs(a - b) < 1e-9 for a, b in zip(sorted(ours), sorted(brute_heights)))

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.floats(0, 1000, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=9,
            unique=True,
        )
    )
    def test_heights_match_on_random_inputs(self, points):
        matrix = distance_matrix(points, lambda a, b: abs(a - b))
        dendrogram = agglomerate(matrix, Linkage.GROUP_AVERAGE)
        brute_heights, __, gap = brute_force_group_average(points)
        if gap < AMBIGUITY_GAP:
            return  # merge choice decided by float noise; either order is valid
        ours = sorted(m.height for m in dendrogram.merges)
        theirs = sorted(brute_heights)
        assert all(abs(a - b) < 1e-6 for a, b in zip(ours, theirs))

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.floats(0, 1000, allow_nan=False, allow_infinity=False),
            min_size=3,
            max_size=8,
            unique=True,
        )
    )
    def test_final_two_clusters_match(self, points):
        """The last merge's two sides must agree with brute force (ties in
        earlier merges can reorder internal structure, but the top split is
        determined for unique heights)."""
        matrix = distance_matrix(points, lambda a, b: abs(a - b))
        dendrogram = agglomerate(matrix, Linkage.GROUP_AVERAGE)
        heights, partitions, gap = brute_force_group_average(points)
        if gap < AMBIGUITY_GAP:
            return  # merge choice decided by float noise; either order is valid
        # Partition just before the last brute-force merge = two clusters.
        brute_two = partitions[-2] if len(partitions) >= 2 else partitions[-1]
        root_left, root_right = dendrogram.children(dendrogram.root)
        ours_two = {
            frozenset(dendrogram.leaves(root_left)),
            frozenset(dendrogram.leaves(root_right)),
        }
        # Only assert when brute force heights are unique (no tie games).
        if len(set(round(h, 9) for h in heights)) == len(heights):
            assert ours_two == brute_two
