"""Kernel functions and Gram matrices for KMM and the one-class SVM.

:func:`pairwise_sq_dists` is the shared squared-distance building block:
kernel mean matching and the KDE reduce their Gram / kernel evaluations to
one call of it (one GEMM), so a distance matrix is never computed twice for
the same data.  The one-class SVM computes its kernel rows on demand with
the same arithmetic and never forms the full matrix.  Its median-heuristic
gamma (:func:`median_heuristic_gamma_strided`) does not call
:func:`pairwise_sq_dists` either: it keeps the one ``x @ x.T`` product and
forms only the strict upper triangle of the distances, with the same
per-entry arithmetic, in that product's own buffer.
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


#: Rows per block of :func:`median_heuristic_gamma_strided`'s triangle pass.
_MEDIAN_BLOCK_ROWS = 64


def _median_stride(n: int, max_samples: int) -> int:
    """Row stride of the median heuristic's deterministic subset."""
    return -(-n // max_samples) if n > max_samples else 1


def _gamma_from_upper(upper: np.ndarray) -> float:
    """gamma = 1 / (2 * median(upper)); partitions ``upper`` in place.

    np.median's value at a fraction of its cost.  np.median partitions at
    the middle pair plus a kth=-1 NaN probe; the data passed check_2d, so
    every distance is finite and the probe guards nothing.  One partition
    at ``half`` leaves the ``half`` smallest entries below it, whose max
    is the lower middle (partitioning at both middle indices costs ~10x
    one), and an even count takes np.mean of the pair, as np.median does.
    The order of ``upper`` does not matter: order statistics are values.
    """
    half = upper.size // 2
    upper.partition(half)
    median_sq = upper[half]
    if upper.size % 2 == 0:
        median_sq = np.mean((upper[:half].max(), median_sq))
    median_sq = float(median_sq)
    if median_sq <= 0.0:
        return 1.0
    return 1.0 / (2.0 * median_sq)


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
    return _gamma_from_upper(sq[np.logical_not(mask, out=mask)])


def _sq_dists_block(row_norms: np.ndarray, col_norms: np.ndarray,
                    prod: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``row_norms + col_norms - 2 * prod``, clamped at 0, into ``out``.

    Doubles ``prod`` in place.  The arithmetic is
    :func:`pairwise_sq_dists`'s, entry for entry.
    """
    prod *= 2.0
    np.add(row_norms, col_norms, out=out)
    np.subtract(out, prod, out=out)
    return np.maximum(out, 0.0, out=out)


def median_heuristic_gamma_strided(x: np.ndarray, max_samples: int = 1000) -> float:
    """:func:`median_heuristic_gamma_from_sq` without the full distance matrix.

    Equal to ``median_heuristic_gamma_from_sq(pairwise_sq_dists(x, x))``,
    bit for bit, but only the strided row subset the heuristic reads is
    used, and of its distances only the strict upper triangle is formed.
    The one ``sample @ sample.T`` product stays whole: a row block of it
    (``sample[a:b] @ sample.T``) takes another BLAS path and differs in
    the last bit.  Blocks of ``_MEDIAN_BLOCK_ROWS`` rows then form their
    distances right of the diagonal, and the strict upper half of their
    diagonal square, with :func:`pairwise_sq_dists`'s per-entry arithmetic
    (``||xi||^2 + ||xj||^2 - 2 xi.xj``, clamped at 0), and collect them
    into the front of the product's own buffer.  No n x n distance matrix,
    n x n mask or triangle-sized copy is built.
    """
    sample = x[::_median_stride(x.shape[0], max_samples)]
    n = sample.shape[0]
    if n < 2:
        return 1.0
    norms = np.sum(sample**2, axis=1)
    prod = sample @ sample.T
    # Rows [a, b) of the triangle fill positions below b * n - b of the
    # flat product, where row b starts at b * n: once the block's rows are
    # copied out, nothing not yet read is overwritten.
    upper = prod.reshape(-1)
    block_rows = np.empty(_MEDIAN_BLOCK_ROWS * n)
    square = np.empty(_MEDIAN_BLOCK_ROWS * _MEDIAN_BLOCK_ROWS)
    strict_upper = np.logical_not(np.tri(_MEDIAN_BLOCK_ROWS, dtype=bool))
    filled = 0
    for start in range(0, n, _MEDIAN_BLOCK_ROWS):
        stop = min(start + _MEDIAN_BLOCK_ROWS, n)
        size = stop - start
        block = block_rows[:size * (n - start)].reshape(size, n - start)
        np.copyto(block, prod[start:stop, start:])
        row_norms = norms[start:stop, None]
        right = size * (n - stop)
        _sq_dists_block(row_norms, norms[None, stop:], block[:, size:],
                        upper[filled:filled + right].reshape(size, n - stop))
        filled += right
        diagonal = _sq_dists_block(row_norms, norms[None, start:stop], block[:, :size],
                                   square[:size * size].reshape(size, size))
        pairs = size * (size - 1) // 2
        upper[filled:filled + pairs] = diagonal[strict_upper[:size, :size]]
        filled += pairs
    return _gamma_from_upper(upper[:filled])


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
