"""Agglomerative clustering: correctness against brute force and scipy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.cut import cut_by_height
from repro.clustering.linkage import Linkage, agglomerate
from repro.distance.matrix import CondensedMatrix, distance_matrix
from repro.errors import ClusteringError


def matrix_from_points(points):
    return distance_matrix(points, lambda a, b: abs(a - b))


class TestBasic:
    def test_single_item(self):
        d = agglomerate(matrix_from_points([1.0]))
        assert d.n_leaves == 1
        assert d.merges == []

    def test_two_items(self):
        d = agglomerate(matrix_from_points([0.0, 3.0]))
        assert len(d.merges) == 1
        assert d.merges[0].height == 3.0

    def test_two_tight_groups_merge_internally_first(self):
        # {0, 0.1, 0.2} and {10, 10.1}: the cross-group merge must be last.
        d = agglomerate(matrix_from_points([0.0, 0.1, 0.2, 10.0, 10.1]))
        last = d.merges[-1]
        left_leaves = sorted(d.leaves(last.left))
        right_leaves = sorted(d.leaves(last.right))
        groups = {tuple(left_leaves), tuple(right_leaves)}
        assert groups == {(0, 1, 2), (3, 4)}

    def test_heights_non_decreasing_group_average(self):
        rng = np.random.default_rng(7)
        points = list(rng.uniform(0, 100, size=20))
        d = agglomerate(matrix_from_points(points))
        heights = [m.height for m in d.merges]
        assert all(a <= b + 1e-9 for a, b in zip(heights, heights[1:]))

    def test_final_cluster_contains_all(self):
        d = agglomerate(matrix_from_points([5.0, 1.0, 9.0, 3.0]))
        assert sorted(d.leaves(d.root)) == [0, 1, 2, 3]

    def test_deterministic_tie_breaking(self):
        points = [0.0, 1.0, 2.0, 3.0]  # many ties
        a = agglomerate(matrix_from_points(points))
        b = agglomerate(matrix_from_points(points))
        assert a.merges == b.merges


class TestGroupAverageSemantics:
    def test_first_merge_is_global_minimum(self):
        points = [0.0, 7.0, 7.5, 20.0]
        d = agglomerate(matrix_from_points(points))
        assert d.merges[0].height == 0.5
        assert {d.merges[0].left, d.merges[0].right} == {1, 2}

    def test_group_average_height_is_mean_pairwise(self):
        # Leaves 0,1 at distance 2 merge first (h=1 impossible; h=2).
        # Then cluster {0,1} vs {2}: mean of d(0,2), d(1,2).
        points = [0.0, 2.0, 10.0]
        d = agglomerate(matrix_from_points(points))
        assert d.merges[0].height == 2.0
        expected = (abs(0 - 10) + abs(2 - 10)) / 2
        assert d.merges[1].height == pytest.approx(expected)


class TestAgainstScipy:
    """scipy as a second oracle, on tie-free random inputs."""

    METHODS = [
        (Linkage.GROUP_AVERAGE, "average"),
        (Linkage.SINGLE, "single"),
        (Linkage.COMPLETE, "complete"),
    ]
    CASES = [(2, 0), (5, 1), (25, 42), (70, 9)]

    @staticmethod
    def tie_free_matrix(n, seed):
        values = np.random.default_rng(seed).uniform(0.0, 50.0, n * (n - 1) // 2)
        assert np.unique(values).size == values.size
        return CondensedMatrix(n, values)

    @pytest.mark.parametrize("linkage,scipy_method", METHODS)
    def test_merge_heights_match_scipy(self, linkage, scipy_method):
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        for n, seed in self.CASES:
            m = self.tie_free_matrix(n, seed)
            ours = agglomerate(m, linkage)
            theirs = hierarchy.linkage(m.values, method=scipy_method)
            our_heights = sorted(merge.height for merge in ours.merges)
            their_heights = sorted(theirs[:, 2])
            assert np.allclose(our_heights, their_heights, rtol=1e-12, atol=0.0), n

    @pytest.mark.parametrize("linkage,scipy_method", METHODS)
    def test_flat_clusters_match_fcluster(self, linkage, scipy_method):
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        for n, seed in self.CASES[2:]:
            m = self.tie_free_matrix(n, seed)
            ours = agglomerate(m, linkage)
            theirs = hierarchy.linkage(m.values, method=scipy_method)
            heights = sorted(merge.height for merge in ours.merges)
            for k in (len(heights) // 4, len(heights) // 2, 3 * len(heights) // 4):
                # Cut midway between two merge heights, clear of float noise.
                cut = (heights[k] + heights[k + 1]) / 2
                our_partition = {frozenset(ours.leaves(node)) for node in cut_by_height(ours, cut)}
                labels = hierarchy.fcluster(theirs, cut, criterion="distance")
                their_partition = {
                    frozenset(np.flatnonzero(labels == label).tolist()) for label in set(labels)
                }
                assert our_partition == their_partition, (n, cut)

    def test_ward_heights_match_scipy(self):
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        rng = np.random.default_rng(3)
        points = list(rng.uniform(0, 10, size=15))
        m = matrix_from_points(points)
        ours = agglomerate(m, Linkage.WARD)
        theirs = hierarchy.linkage(m.values, method="ward")
        assert np.allclose(
            sorted(merge.height for merge in ours.merges), sorted(theirs[:, 2]), atol=1e-8
        )


class TestInputValidation:
    """Distances must be finite and non-negative; the error names the pair."""

    @staticmethod
    def matrix_with(bad_value):
        # n=4: condensed index 4 is the pair (1, 3).
        values = np.array([1.0, 2.0, 3.0, 4.0, bad_value, 6.0])
        return CondensedMatrix(4, values)

    def test_nan_distance_rejected(self):
        with pytest.raises(ClusteringError, match=r"distance \(1, 3\) is nan"):
            agglomerate(self.matrix_with(float("nan")))

    def test_infinite_distance_rejected(self):
        with pytest.raises(ClusteringError, match=r"distance \(1, 3\) is inf"):
            agglomerate(self.matrix_with(float("inf")))

    def test_negative_distance_rejected(self):
        with pytest.raises(ClusteringError, match=r"distance \(1, 3\) is -0.5"):
            agglomerate(self.matrix_with(-0.5))

    def test_first_offending_pair_is_named(self):
        values = np.array([1.0, 2.0, -1.0, 4.0, float("nan"), 6.0])
        with pytest.raises(ClusteringError, match=r"distance \(0, 3\) is -1.0"):
            agglomerate(CondensedMatrix(4, values), Linkage.SINGLE)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=12))
def test_property_valid_tree_any_input(points):
    d = agglomerate(matrix_from_points(points))
    assert d.n_leaves == len(points)
    assert sorted(d.leaves(d.root)) == list(range(len(points)))
    heights = [m.height for m in d.merges]
    assert all(h >= 0 for h in heights)
    assert all(a <= b + 1e-9 for a, b in zip(heights, heights[1:]))
