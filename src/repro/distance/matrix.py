"""Pairwise distance matrices in condensed form.

Group-average clustering of M packets needs all M(M-1)/2 pairwise
distances.  :class:`CondensedMatrix` stores them in the usual condensed
(upper-triangle, row-major) layout on a numpy array, the same convention
scipy uses, so validation code can cross-check against
:func:`scipy.cluster.hierarchy` when scipy is installed.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.errors import DistanceError


class CondensedMatrix:
    """Symmetric zero-diagonal distance matrix over ``n`` items.

    :param n: number of items.
    :param values: condensed vector of length ``n * (n - 1) // 2``.
    """

    def __init__(self, n: int, values: np.ndarray) -> None:
        expected = n * (n - 1) // 2
        if values.shape != (expected,):
            raise DistanceError(
                f"condensed vector has length {values.shape[0]}, expected {expected} for n={n}"
            )
        self.n = n
        self.values = values

    def _index(self, i: int, j: int) -> int:
        if i == j:
            raise DistanceError("diagonal has no condensed index")
        if i > j:
            i, j = j, i
        if not 0 <= i < self.n or not 0 <= j < self.n:
            raise DistanceError(f"index ({i}, {j}) out of range for n={self.n}")
        # Offset of row i, then the column within the row.
        return i * self.n - i * (i + 1) // 2 + (j - i - 1)

    def get(self, i: int, j: int) -> float:
        """Distance between items ``i`` and ``j`` (0.0 on the diagonal)."""
        if i == j:
            if not 0 <= i < self.n:
                raise DistanceError(f"index ({i}, {j}) out of range for n={self.n}")
            return 0.0
        return float(self.values[self._index(i, j)])

    def to_square(self) -> np.ndarray:
        """Expand to a full symmetric ``n x n`` array (vectorized fill)."""
        square = np.zeros((self.n, self.n), dtype=float)
        if self.values.size:
            rows, cols = np.triu_indices(self.n, k=1)
            square[rows, cols] = self.values
            square[cols, rows] = self.values
        return square

    def subset(self, indices: Sequence[int]) -> "CondensedMatrix":
        """Condensed matrix over ``items[indices]`` (vectorized gather).

        The result's pair ``(a, b)`` equals this matrix's pair
        ``(indices[a], indices[b])`` — the same values a fresh build over
        the sub-population would produce.  Used by block-local
        reclustering, which only ever looks inside one block.
        """
        picked = np.asarray(list(indices), dtype=np.intp)
        if picked.size and (picked.min() < 0 or picked.max() >= self.n):
            raise DistanceError(
                f"subset indices out of range for n={self.n}"
            )
        if len(set(picked.tolist())) != picked.size:
            raise DistanceError("subset indices must be distinct")
        m = picked.size
        if m < 2:
            return CondensedMatrix(m, np.empty(0, dtype=float))
        local_rows, local_cols = np.triu_indices(m, k=1)
        gi = picked[local_rows]
        gj = picked[local_cols]
        lo = np.minimum(gi, gj)
        hi = np.maximum(gi, gj)
        condensed = lo * self.n - lo * (lo + 1) // 2 + (hi - lo - 1)
        return CondensedMatrix(m, self.values[condensed].astype(float, copy=True))


def distance_matrix(
    items: Sequence,
    metric: Callable[[object, object], float],
    *,
    progress: Callable[[int, int], None] | None = None,
) -> CondensedMatrix:
    """Evaluate ``metric`` over all unordered pairs of ``items``.

    :param progress: optional callback ``(done_pairs, total_pairs)`` invoked
        every 1000 pairs, for long-running experiment logs.
    :raises DistanceError: when a pair evaluates to a negative or
        non-finite value — metrics must be well-behaved before clustering.
    """
    n = len(items)
    total = n * (n - 1) // 2
    values = np.empty(total, dtype=float)
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            value = metric(items[i], items[j])
            if not np.isfinite(value) or value < 0:
                raise DistanceError(f"metric returned invalid value {value!r} for pair ({i}, {j})")
            values[k] = value
            k += 1
            if progress is not None and k % 1000 == 0:
                progress(k, total)
    if progress is not None:
        progress(total, total)
    return CondensedMatrix(n, values)
