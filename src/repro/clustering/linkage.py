"""Agglomerative hierarchical clustering with Lance-Williams updates.

The paper's method (Section IV-D): start with every packet in its own
cluster, repeatedly merge the closest pair under the *group average*
criterion

    d_group(C_x, C_y) = (1 / |C_x||C_y|) * sum_{p in C_x} sum_{q in C_y} d_pkt(p, q)

until one cluster remains.  Instead of recomputing the double sum after
every merge (O(n^4) total), we maintain the cluster-to-cluster distance
matrix with the Lance-Williams recurrence — for group average,

    d(C_xy, C_z) = (|C_x| d(C_x,C_z) + |C_y| d(C_y,C_z)) / (|C_x| + |C_y|)

which is exactly equivalent.  Single, complete, and Ward linkages are
provided for the linkage ablation bench.

The closest pair is found from a cache of each row's minimum over the
upper triangle (the "generic" algorithm in Müllner, arXiv:1109.2378):
``row_min[i]`` is the smallest ``d(i, j)`` over active ``j > i`` and
``row_arg[i]`` the smallest such ``j``.  The next merge is the first
argmin of ``row_min``, which is the lexicographically smallest minimal
pair, the same pair a scan of the whole matrix picks.  A merge rewrites
one row and column, so the cache is patched with O(n) vector work plus
an O(n) rescan of each row whose cached partner was merged away or grew.
Memory is O(n^2) for the working matrix; the worst case stays O(n^3),
but on real inputs only a handful of rows are rescanned per merge.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.clustering.dendrogram import Dendrogram, Merge
from repro.distance.matrix import CondensedMatrix
from repro.errors import ClusteringError


class Linkage(enum.Enum):
    """Cluster-to-cluster distance criterion."""

    GROUP_AVERAGE = "average"  # the paper's choice
    SINGLE = "single"
    COMPLETE = "complete"
    WARD = "ward"


def agglomerate(matrix: CondensedMatrix, linkage: Linkage = Linkage.GROUP_AVERAGE) -> Dendrogram:
    """Run agglomerative clustering over a precomputed distance matrix.

    Ties in the nearest-pair search are broken toward the pair with the
    smallest slots, which makes results deterministic across runs and
    platforms.

    :param matrix: condensed pairwise distances over the items.
    :param linkage: merge criterion; the paper uses group average.
    :returns: the full merge tree (:class:`Dendrogram`).
    :raises ClusteringError: for an empty input, or a distance that is
        NaN, infinite or negative.
    """
    n = matrix.n
    if n < 1:
        raise ClusteringError("cannot cluster zero items")
    _check_distances(matrix)
    if n == 1:
        return Dendrogram(1, [])

    # Working square matrix of current cluster distances. Inactive rows are
    # masked with +inf. node_ids[i] holds the *node id* for slot i.
    square = matrix.to_square()
    np.fill_diagonal(square, np.inf)
    sizes = np.ones(n, dtype=int)
    node_ids = np.arange(n)
    active = np.ones(n, dtype=bool)
    row_min = np.full(n, np.inf)
    row_arg = np.full(n, n, dtype=np.intp)
    for i in range(n - 1):
        _refresh_row(square, row_min, row_arg, i)
    merges: list[Merge] = []

    for step in range(n - 1):
        slot_x = int(np.argmin(row_min))
        slot_y = int(row_arg[slot_x])
        if not np.isfinite(row_min[slot_x]):
            raise ClusteringError("no active pair remains")
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
        _update_row_minima(square, active, row_min, row_arg, slot_x, slot_y)

    return Dendrogram(n, merges)


def _check_distances(matrix: CondensedMatrix) -> None:
    """Reject NaN, infinite and negative distances, naming the first one."""
    values = matrix.values
    bad = np.flatnonzero(~np.isfinite(values) | (values < 0))
    if bad.size:
        k = int(bad[0])
        rows, cols = np.triu_indices(matrix.n, k=1)
        i, j = int(rows[k]), int(cols[k])
        raise ClusteringError(
            f"distance ({i}, {j}) is {float(values[k])!r}; linkage needs finite non-negative distances"
        )


def _refresh_row(square: np.ndarray, row_min: np.ndarray, row_arg: np.ndarray, i: int) -> None:
    """Rescan row ``i`` right of the diagonal; the first minimum wins ties."""
    tail = square[i, i + 1 :]
    k = int(np.argmin(tail))
    row_min[i] = tail[k]
    row_arg[i] = i + 1 + k


def _update_row_minima(
    square: np.ndarray,
    active: np.ndarray,
    row_min: np.ndarray,
    row_arg: np.ndarray,
    slot_x: int,
    slot_y: int,
) -> None:
    """Patch the row-minimum cache after ``slot_y`` merged into ``slot_x``.

    Only column ``slot_x`` changed and column ``slot_y`` went to +inf, so a
    row keeps its cached minimum unless the new ``d(i, x)`` beats it, or its
    cached partner was ``y``, or was ``x`` and the distance to it grew.
    """
    row_min[slot_y] = np.inf
    refresh = active[:slot_y] & (row_arg[:slot_y] == slot_y)
    new = square[:slot_x, slot_x]
    best = row_min[:slot_x]
    arg = row_arg[:slot_x]
    live = active[:slot_x]
    refresh[:slot_x] |= live & (arg == slot_x) & (new > best)
    take = live & ((new < best) | ((new == best) & (slot_x < arg)))
    best[take] = new[take]
    arg[take] = slot_x
    refresh[slot_x] = True
    for i in np.flatnonzero(refresh):
        _refresh_row(square, row_min, row_arg, int(i))


def _lance_williams_update(
    square: np.ndarray,
    active: np.ndarray,
    slot_x: int,
    slot_y: int,
    size_x: int,
    size_y: int,
    sizes: np.ndarray,
    linkage: Linkage,
) -> None:
    """Rewrite row/column ``slot_x`` with distances from the merged cluster."""
    d_xz = square[slot_x, :]
    d_yz = square[slot_y, :]
    if linkage is Linkage.GROUP_AVERAGE:
        new = (size_x * d_xz + size_y * d_yz) / (size_x + size_y)
    elif linkage is Linkage.SINGLE:
        new = np.minimum(d_xz, d_yz)
    elif linkage is Linkage.COMPLETE:
        new = np.maximum(d_xz, d_yz)
    elif linkage is Linkage.WARD:
        # Lance-Williams for Ward on squared Euclidean-like distances:
        # d(xy,z) = sqrt(((sx+sz) d_xz^2 + (sy+sz) d_yz^2 - sz d_xy^2) / (sx+sy+sz))
        d_xy = square[slot_x, slot_y]
        sz = sizes.astype(float)
        total = size_x + size_y + sz
        with np.errstate(invalid="ignore"):
            new = np.sqrt(
                np.maximum(
                    ((size_x + sz) * d_xz**2 + (size_y + sz) * d_yz**2 - sz * d_xy**2) / total,
                    0.0,
                )
            )
    else:  # pragma: no cover - enum is closed
        raise ClusteringError(f"unsupported linkage {linkage!r}")
    # Only active, non-self slots matter; the rest stay +inf.
    mask = active.copy()
    mask[slot_x] = False
    mask[slot_y] = False
    square[slot_x, mask] = new[mask]
    square[mask, slot_x] = new[mask]
    square[slot_x, slot_x] = np.inf
