"""Kernel functions and Gram matrices for KMM and the one-class SVM.

:func:`pairwise_sq_dists` is the shared squared-distance building block:
kernel mean matching and the KDE reduce their Gram / kernel evaluations to
one call of it (one GEMM), so a distance matrix is never computed twice for
the same data.  The one-class SVM computes its kernel rows on demand with
the same arithmetic and never forms the full matrix.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_2d, check_positive


def pairwise_sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``x`` and ``y``.

    Evaluated as ``||x||^2 + ||y||^2 - 2 x.y`` (one GEMM) with in-place
    updates; for large Gram matrices the avoided temporaries matter as much
    as the arithmetic.
    """
    x_norm = np.sum(x**2, axis=1)[:, None]
    y_norm = np.sum(y**2, axis=1)[None, :]
    prod = x @ y.T
    prod *= 2.0
    sq = x_norm + y_norm
    np.subtract(sq, prod, out=sq)
    return np.maximum(sq, 0.0, out=sq)


def rbf_kernel(x, y=None, gamma: float = 1.0) -> np.ndarray:
    """Gaussian RBF Gram matrix ``exp(-gamma * ||xi - yj||^2)``."""
    x = check_2d(x, "x")
    y = x if y is None else check_2d(y, "y")
    check_positive(gamma, "gamma")
    return rbf_from_sq_dists(pairwise_sq_dists(x, y), gamma)


def rbf_from_sq_dists(sq: np.ndarray, gamma: float) -> np.ndarray:
    """RBF Gram matrix from a precomputed squared-distance matrix.

    Consumes ``sq`` in place (the caller hands over the buffer); use this
    when the distances are already in hand to avoid a second GEMM.
    """
    check_positive(gamma, "gamma")
    sq *= -gamma
    return np.exp(sq, out=sq)


def linear_kernel(x, y=None) -> np.ndarray:
    """Linear Gram matrix ``xi . yj``."""
    x = check_2d(x, "x")
    y = x if y is None else check_2d(y, "y")
    return x @ y.T


def polynomial_kernel(x, y=None, degree: int = 3, coef0: float = 1.0,
                      gamma: float = 1.0) -> np.ndarray:
    """Polynomial Gram matrix ``(gamma * xi . yj + coef0) ** degree``."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    x = check_2d(x, "x")
    y = x if y is None else check_2d(y, "y")
    check_positive(gamma, "gamma")
    return (gamma * (x @ y.T) + coef0) ** degree


def _median_stride(n: int, max_samples: int) -> int:
    """Row stride of the median heuristic's deterministic subset."""
    return -(-n // max_samples) if n > max_samples else 1


def median_heuristic_gamma_from_sq(sq: np.ndarray, max_samples: int = 1000) -> float:
    """RBF gamma from a precomputed symmetric squared-distance matrix.

    gamma = 1 / (2 * median(||xi - xj||^2)) over the strict upper triangle;
    deterministic — callers that already paid for the full distance matrix
    get the heuristic without another GEMM.  Above ``max_samples`` rows the
    median is taken over an evenly strided row subset (still deterministic;
    the exact median of an O(n^2) triangle buys no extra robustness).
    """
    n = sq.shape[0]
    if n < 2:
        return 1.0
    if n > max_samples:
        idx = np.arange(0, n, _median_stride(n, max_samples))
        sq = sq[np.ix_(idx, idx)]
        n = sq.shape[0]
    # Strict upper triangle through one boolean mask, negated in place: a
    # second n x n temporary raised a calibration's peak RSS by ~0.4 MiB.
    mask = np.tri(n, dtype=bool)
    upper = sq[np.logical_not(mask, out=mask)]
    # np.median's value at a fraction of its cost.  np.median partitions at
    # the middle pair plus a kth=-1 NaN probe; the data passed check_2d, so
    # every distance is finite and the probe guards nothing.  One partition
    # at ``half`` leaves the ``half`` smallest entries below it, whose max
    # is the lower middle (partitioning at both middle indices costs ~10x
    # one), and an even count takes np.mean of the pair, as np.median does.
    half = upper.size // 2
    upper.partition(half)
    median_sq = upper[half]
    if upper.size % 2 == 0:
        median_sq = np.mean((upper[:half].max(), median_sq))
    median_sq = float(median_sq)
    if median_sq <= 0.0:
        return 1.0
    return 1.0 / (2.0 * median_sq)


def median_heuristic_gamma_strided(x: np.ndarray, max_samples: int = 1000) -> float:
    """:func:`median_heuristic_gamma_from_sq` without the full distance matrix.

    Equal to ``median_heuristic_gamma_from_sq(pairwise_sq_dists(x, x))``,
    but only the strided row subset the heuristic reads is ever computed:
    O(max_samples^2) distances instead of O(n^2).
    """
    sample = x[::_median_stride(x.shape[0], max_samples)]
    return median_heuristic_gamma_from_sq(pairwise_sq_dists(sample, sample),
                                          max_samples)


def median_heuristic_gamma(x, max_samples: int = 1000, rng: SeedLike = 0) -> float:
    """RBF gamma from the median pairwise distance heuristic.

    gamma = 1 / (2 * median(||xi - xj||)^2); a robust default bandwidth for
    both KMM and the one-class SVM.  Subsamples to ``max_samples`` rows for
    large populations; the subsample is drawn from ``rng`` (a fixed default
    seed, so the heuristic is deterministic unless a generator is passed).
    """
    x = check_2d(x, "x")
    if x.shape[0] > max_samples:
        gen = as_generator(rng)
        idx = gen.choice(x.shape[0], size=max_samples, replace=False)
        x = x[idx]
    return median_heuristic_gamma_from_sq(pairwise_sq_dists(x, x))
