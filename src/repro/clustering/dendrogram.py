"""Dendrogram: the merge tree produced by agglomerative clustering.

Nodes are numbered scipy-style: leaves are ``0 .. n-1``; the ``k``-th merge
creates internal node ``n + k``.  Each :class:`Merge` records the two
children, the linkage height at which they joined, and the size of the new
cluster.  :class:`Dendrogram` offers traversal utilities used by both the
cut strategies and signature generation (which walks clusters top-down).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ClusteringError


@dataclass(frozen=True, slots=True)
class Merge:
    """One agglomeration step.

    :param left: node id of the first merged cluster.
    :param right: node id of the second merged cluster.
    :param height: linkage distance between the two clusters at merge time.
    :param size: number of leaves in the resulting cluster.
    """

    left: int
    right: int
    height: float
    size: int


class Dendrogram:
    """The full merge history over ``n_leaves`` items.

    :param n_leaves: number of original items (must be >= 1).
    :param merges: ``n_leaves - 1`` merges in creation order.  Each merge
        may only reference leaves or earlier merges, and every node but the
        root must be merged exactly once.  Heights are not checked; the
        linkages in :mod:`repro.clustering.linkage` produce them in
        non-decreasing order up to float rounding.
    :raises ClusteringError: when any of these structural rules is broken.
    """

    def __init__(self, n_leaves: int, merges: list[Merge]) -> None:
        if n_leaves < 1:
            raise ClusteringError("dendrogram needs at least one leaf")
        if len(merges) != n_leaves - 1:
            raise ClusteringError(
                f"expected {n_leaves - 1} merges for {n_leaves} leaves, got {len(merges)}"
            )
        self.n_leaves = n_leaves
        self.merges = merges
        self._children: dict[int, tuple[int, int]] = {}
        for k, merge in enumerate(merges):
            node = n_leaves + k
            for child in (merge.left, merge.right):
                if not 0 <= child < node:
                    raise ClusteringError(f"merge {k} references invalid node {child}")
            self._children[node] = (merge.left, merge.right)
        # Every node except the root must be a child exactly once.
        seen: set[int] = set()
        for left, right in self._children.values():
            for child in (left, right):
                if child in seen:
                    raise ClusteringError(f"node {child} merged twice")
                seen.add(child)

    @property
    def root(self) -> int:
        """Node id of the final cluster containing every leaf."""
        return self.n_leaves + len(self.merges) - 1 if self.merges else 0

    @property
    def n_nodes(self) -> int:
        return self.n_leaves + len(self.merges)

    def is_leaf(self, node: int) -> bool:
        return node < self.n_leaves

    def children(self, node: int) -> tuple[int, int]:
        """The two children of an internal node."""
        if self.is_leaf(node):
            raise ClusteringError(f"leaf {node} has no children")
        return self._children[node]

    def height(self, node: int) -> float:
        """Merge height of an internal node (0.0 for leaves)."""
        if self.is_leaf(node):
            return 0.0
        return self.merges[node - self.n_leaves].height

    def size(self, node: int) -> int:
        """Number of leaves under ``node``."""
        if self.is_leaf(node):
            return 1
        return self.merges[node - self.n_leaves].size

    def leaves(self, node: int) -> list[int]:
        """All leaf ids under ``node``, in discovery order."""
        stack = [node]
        out: list[int] = []
        while stack:
            current = stack.pop()
            if self.is_leaf(current):
                out.append(current)
            else:
                left, right = self.children(current)
                stack.append(right)
                stack.append(left)
        return out

    def iter_top_down(self) -> list[int]:
        """Internal nodes from the root downwards (by decreasing height).

        Signature generation consumes clusters in this order: "Select the
        top of cluster C_i, compute a signature ... remove C_i and repeat."
        """
        internal = list(range(self.n_leaves, self.n_nodes))
        internal.sort(key=lambda node: (self.height(node), node), reverse=True)
        return internal

    def to_linkage_array(self) -> list[list[float]]:
        """Scipy-compatible ``(n-1) x 4`` linkage matrix (as nested lists)."""
        return [
            [float(m.left), float(m.right), float(m.height), float(m.size)]
            for m in self.merges
        ]
