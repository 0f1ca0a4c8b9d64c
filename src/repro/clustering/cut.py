"""Flat-cluster extraction from a dendrogram.

The paper's signature step walks clusters "from the top"; in practice a
signature per *every* internal node is redundant, so implementations cut
the tree into flat clusters first: every maximal cluster at or below a
height threshold.
"""

from __future__ import annotations

from repro.clustering.dendrogram import Dendrogram
from repro.errors import ClusteringError


def cut_by_height(dendrogram: Dendrogram, height: float) -> list[int]:
    """Maximal nodes whose merge height is <= ``height``.

    Equivalent to slicing the tree horizontally: every returned node is a
    flat cluster, the union covers all leaves, singleton leaves whose
    parent merged above the threshold come back as leaf nodes.
    """
    # ``not height >= 0`` also catches NaN: every comparison with it is
    # false, so the walk below would try to split a leaf.
    if not height >= 0:
        raise ClusteringError(f"cut height must be non-negative, got {height}")
    # Iterative walk: a chained dendrogram (single linkage) can be as deep
    # as the leaf count, which would blow Python's recursion limit.
    clusters: list[int] = []
    stack = [dendrogram.root]
    while stack:
        node = stack.pop()
        if dendrogram.height(node) <= height:
            clusters.append(node)
        else:
            left, right = dendrogram.children(node)
            stack.append(left)
            stack.append(right)
    return clusters


def cut_min_size(dendrogram: Dendrogram, height: float, min_size: int) -> list[int]:
    """Height cut keeping only clusters with at least ``min_size`` leaves.

    Unlike the other cuts this does *not* partition all leaves — small
    clusters are dropped, matching how signature generation discards
    singletons that cannot yield a common substring across packets.
    """
    if min_size < 1:
        raise ClusteringError("min_size must be at least 1")
    return [node for node in cut_by_height(dendrogram, height) if dendrogram.size(node) >= min_size]
