"""Condensed distance matrices."""

import numpy as np
import pytest

from repro.distance.matrix import CondensedMatrix, distance_matrix
from repro.errors import DistanceError


def abs_metric(a, b):
    return abs(a - b)


class TestDistanceMatrix:
    def test_values_and_indexing(self):
        items = [0.0, 1.0, 3.0]
        m = distance_matrix(items, abs_metric)
        assert m.get(0, 1) == 1.0
        assert m.get(0, 2) == 3.0
        assert m.get(1, 2) == 2.0

    def test_symmetric_access(self):
        m = distance_matrix([0.0, 5.0], abs_metric)
        assert m.get(1, 0) == m.get(0, 1) == 5.0

    def test_diagonal_is_zero(self):
        m = distance_matrix([1.0, 2.0], abs_metric)
        assert m.get(0, 0) == 0.0

    def test_to_square(self):
        m = distance_matrix([0.0, 1.0, 3.0], abs_metric)
        square = m.to_square()
        assert square.shape == (3, 3)
        assert np.allclose(square, square.T)
        assert square[0, 2] == 3.0
        assert np.all(np.diag(square) == 0)

    def test_to_square_matches_reference_loop(self):
        """Regression: the vectorized fill equals the elementwise expansion."""
        rng = np.random.default_rng(5)
        for n in (0, 1, 2, 3, 7, 20):
            values = rng.uniform(0.0, 6.0, size=n * (n - 1) // 2)
            m = CondensedMatrix(n, values)
            reference = np.zeros((n, n))
            k = 0
            for i in range(n):
                for j in range(i + 1, n):
                    reference[i, j] = reference[j, i] = values[k]
                    k += 1
            assert np.array_equal(m.to_square(), reference)

    def test_min_max(self):
        m = distance_matrix([0.0, 1.0, 10.0], abs_metric)
        assert m.min == 1.0
        assert m.max == 10.0

    def test_empty_pairs(self):
        m = distance_matrix([42.0], abs_metric)
        assert m.n == 1
        assert m.max == 0.0

    def test_rejects_negative_metric(self):
        with pytest.raises(DistanceError):
            distance_matrix([1, 2], lambda a, b: -1.0)

    def test_rejects_nan_metric(self):
        with pytest.raises(DistanceError):
            distance_matrix([1, 2], lambda a, b: float("nan"))

    def test_progress_callback(self):
        calls = []
        distance_matrix(list(range(10)), abs_metric, progress=lambda k, t: calls.append((k, t)))
        assert calls[-1] == (45, 45)

    def test_out_of_range_index(self):
        m = distance_matrix([1.0, 2.0], abs_metric)
        with pytest.raises(DistanceError):
            m.get(0, 5)

    @pytest.mark.parametrize("index", [3, 7, -1])
    def test_out_of_range_diagonal(self, index):
        # The diagonal short-circuit once returned 0.0 for any i == j.
        m = distance_matrix([0.0, 1.0, 3.0], abs_metric)
        with pytest.raises(DistanceError, match="out of range for n=3"):
            m.get(index, index)
        assert m.get(2, 2) == 0.0

    def test_wrong_vector_length_rejected(self):
        with pytest.raises(DistanceError):
            CondensedMatrix(3, np.zeros(2))

    def test_matches_scipy_condensed_convention(self):
        scipy_spatial = pytest.importorskip("scipy.spatial")
        items = [0.0, 1.5, 4.0, 9.0]
        m = distance_matrix(items, abs_metric)
        theirs = scipy_spatial.distance.pdist([[x] for x in items], metric="cityblock")
        assert np.allclose(m.values, theirs)
