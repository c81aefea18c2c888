"""Kernel functions and the median heuristic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.stats.kernels import (
    median_heuristic_gamma,
    median_heuristic_gamma_from_sq,
    median_heuristic_gamma_strided,
    pairwise_sq_dists,
    rbf_kernel,
)
from tests.oracles import median_heuristic_gamma_reference

finite_matrix = arrays(
    dtype=float,
    shape=st.tuples(st.integers(2, 8), st.integers(1, 4)),
    elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
)


class TestRbf:
    def test_diagonal_is_one(self):
        x = np.random.default_rng(0).standard_normal((6, 3))
        np.testing.assert_allclose(np.diag(rbf_kernel(x, gamma=0.7)), 1.0)

    def test_symmetry(self):
        x = np.random.default_rng(0).standard_normal((6, 3))
        k = rbf_kernel(x, gamma=0.7)
        np.testing.assert_allclose(k, k.T)

    def test_known_value(self):
        x = np.array([[0.0], [1.0]])
        k = rbf_kernel(x, gamma=2.0)
        assert k[0, 1] == pytest.approx(np.exp(-2.0))

    def test_rectangular(self):
        x = np.zeros((3, 2))
        y = np.ones((5, 2))
        assert rbf_kernel(x, y, gamma=1.0).shape == (3, 5)

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            rbf_kernel(np.zeros((2, 2)), gamma=0.0)

    @settings(max_examples=25)
    @given(finite_matrix)
    def test_values_in_unit_interval(self, x):
        k = rbf_kernel(x, gamma=0.5)
        assert np.all(k > 0) and np.all(k <= 1.0 + 1e-12)

    @settings(max_examples=15)
    @given(finite_matrix)
    def test_positive_semidefinite(self, x):
        k = rbf_kernel(x, gamma=0.5)
        eigvals = np.linalg.eigvalsh(k)
        assert eigvals.min() > -1e-8


class TestMedianHeuristic:
    def test_matches_manual_median(self):
        x = np.array([[0.0], [1.0], [3.0]])
        # pairwise squared distances: 1, 9, 4 -> median 4.
        assert median_heuristic_gamma(x) == pytest.approx(1.0 / 8.0)

    def test_degenerate_data_returns_one(self):
        assert median_heuristic_gamma(np.zeros((5, 2))) == 1.0
        assert median_heuristic_gamma(np.zeros((1, 2))) == 1.0

    def test_subsampling_is_close_to_full(self):
        x = np.random.default_rng(0).standard_normal((3000, 2))
        full = median_heuristic_gamma(x, max_samples=3000)
        sub = median_heuristic_gamma(x, max_samples=500, rng=np.random.default_rng(1))
        assert sub == pytest.approx(full, rel=0.2)


class TestMedianHeuristicExactness:
    """Partition-based gamma == the np.median reference, bit for bit."""

    @staticmethod
    def _assert_exact(x, max_samples=1000):
        sq = pairwise_sq_dists(x, x)
        expected = median_heuristic_gamma_reference(sq, max_samples)
        assert median_heuristic_gamma_from_sq(sq, max_samples) == expected
        assert median_heuristic_gamma_strided(x, max_samples) == expected
        return expected

    # Triangle sizes n(n-1)/2: odd for n = 2, 3, 6, 7, 41; even for n = 4,
    # 5, 40, 640 (large enough that a partition does not fully sort it).
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 40, 41, 640])
    def test_odd_and_even_triangles(self, n):
        self._assert_exact(np.random.default_rng(n).standard_normal((n, 3)))

    @pytest.mark.parametrize("n", [5, 8, 33])
    def test_ties(self, n):
        grid = np.random.default_rng(n).integers(0, 3, size=(n, 2)).astype(float)
        self._assert_exact(grid)

    def test_all_equal_points(self):
        assert self._assert_exact(np.ones((6, 3))) == 1.0

    # Strided subsets of 33, 63, 750 and 1000 rows.
    @pytest.mark.parametrize("n, max_samples",
                             [(97, 40), (250, 64), (1500, 1000), (2000, 1000)])
    def test_strided_subset(self, n, max_samples):
        x = np.random.default_rng(n).standard_normal((n, 6))
        self._assert_exact(x, max_samples)

    @settings(max_examples=60, deadline=None)
    @given(finite_matrix)
    def test_random_matrices(self, x):
        self._assert_exact(x)
