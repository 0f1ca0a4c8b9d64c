"""Dendrogram structure and traversal."""

import pytest

from repro.clustering.dendrogram import Dendrogram, Merge
from repro.errors import ClusteringError


def simple_tree():
    """4 leaves: (0,1) at h=1 -> node 4; (2,3) at h=2 -> node 5; root h=5."""
    return Dendrogram(
        4,
        [
            Merge(0, 1, 1.0, 2),
            Merge(2, 3, 2.0, 2),
            Merge(4, 5, 5.0, 4),
        ],
    )


class TestStructure:
    def test_root_and_counts(self):
        d = simple_tree()
        assert d.root == 6
        assert d.n_nodes == 7
        assert d.n_leaves == 4

    def test_single_leaf(self):
        d = Dendrogram(1, [])
        assert d.root == 0
        assert d.is_leaf(0)

    def test_children(self):
        d = simple_tree()
        assert d.children(6) == (4, 5)
        assert d.children(4) == (0, 1)

    def test_leaf_has_no_children(self):
        with pytest.raises(ClusteringError):
            simple_tree().children(0)

    def test_heights(self):
        d = simple_tree()
        assert d.height(0) == 0.0
        assert d.height(4) == 1.0
        assert d.height(6) == 5.0

    def test_sizes(self):
        d = simple_tree()
        assert d.size(0) == 1
        assert d.size(4) == 2
        assert d.size(6) == 4

    def test_leaves(self):
        d = simple_tree()
        assert sorted(d.leaves(6)) == [0, 1, 2, 3]
        assert sorted(d.leaves(5)) == [2, 3]
        assert d.leaves(1) == [1]

    def test_wrong_merge_count_rejected(self):
        with pytest.raises(ClusteringError):
            Dendrogram(4, [Merge(0, 1, 1.0, 2)])

    def test_invalid_child_reference_rejected(self):
        with pytest.raises(ClusteringError):
            Dendrogram(2, [Merge(0, 5, 1.0, 2)])

    def test_double_merge_rejected(self):
        with pytest.raises(ClusteringError):
            Dendrogram(3, [Merge(0, 1, 1.0, 2), Merge(0, 2, 2.0, 3)])

    def test_zero_leaves_rejected(self):
        with pytest.raises(ClusteringError):
            Dendrogram(0, [])


class TestTraversal:
    def test_top_down_order(self):
        d = simple_tree()
        order = d.iter_top_down()
        assert order[0] == 6  # root first
        assert set(order) == {4, 5, 6}
        assert order == sorted(order, key=lambda n: (d.height(n), n), reverse=True)


class TestExport:
    def test_linkage_array_shape(self):
        arr = simple_tree().to_linkage_array()
        assert len(arr) == 3
        assert arr[0] == [0.0, 1.0, 1.0, 2.0]
