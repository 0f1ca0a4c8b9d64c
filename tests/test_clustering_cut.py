"""Flat-cluster extraction strategies."""

import pytest

from repro.clustering.cut import cut_by_height, cut_min_size
from repro.clustering.dendrogram import Dendrogram, Merge
from repro.errors import ClusteringError


def tree():
    """4 leaves: (0,1)@1 -> 4; (2,3)@2 -> 5; root@5 -> 6."""
    return Dendrogram(4, [Merge(0, 1, 1.0, 2), Merge(2, 3, 2.0, 2), Merge(4, 5, 5.0, 4)])


class TestHeightCut:
    def test_cut_below_everything_gives_leaves(self):
        assert sorted(cut_by_height(tree(), 0.5)) == [0, 1, 2, 3]

    def test_cut_between_merges(self):
        assert sorted(cut_by_height(tree(), 1.5)) == [2, 3, 4]

    def test_cut_above_everything_gives_root(self):
        assert cut_by_height(tree(), 10.0) == [6]

    def test_cut_exactly_at_height_includes_node(self):
        assert sorted(cut_by_height(tree(), 2.0)) == [4, 5]

    def test_clusters_partition_leaves(self):
        d = tree()
        for h in (0.0, 1.0, 1.5, 2.0, 4.9, 5.0):
            leaves = sorted(leaf for node in cut_by_height(d, h) for leaf in d.leaves(node))
            assert leaves == [0, 1, 2, 3]

    def test_negative_height_rejected(self):
        with pytest.raises(ClusteringError):
            cut_by_height(tree(), -1.0)

    def test_nan_height_rejected(self):
        # NaN fails every comparison: the walk once tried to split a leaf.
        with pytest.raises(ClusteringError, match="non-negative"):
            cut_by_height(tree(), float("nan"))


class TestMinSize:
    def test_small_clusters_dropped(self):
        # At height 1.5: clusters are 4 (size 2), and leaves 2, 3 (size 1).
        assert cut_min_size(tree(), 1.5, min_size=2) == [4]

    def test_min_size_one_keeps_everything(self):
        assert sorted(cut_min_size(tree(), 1.5, min_size=1)) == [2, 3, 4]

    def test_invalid_min_size(self):
        with pytest.raises(ClusteringError):
            cut_min_size(tree(), 1.0, min_size=0)


class TestDeepChain:
    def test_chained_dendrogram_does_not_recurse_out(self):
        """A single-linkage-style chain as deep as the leaf count must cut
        without hitting Python's recursion limit."""
        n = 3000
        merges = []
        prev = 0
        for k in range(n - 1):
            merges.append(Merge(prev, k + 1, float(k), k + 2))
            prev = n + k
        deep = Dendrogram(n, merges)
        clusters = cut_by_height(deep, 100.0)
        leaves = sorted(leaf for node in clusters for leaf in deep.leaves(node))
        assert leaves == list(range(n))
