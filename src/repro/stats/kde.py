"""Epanechnikov kernel density estimation and tail-enhanced sampling.

Implements the paper's Section 2.5 (following Silverman 1986):

* the fixed-bandwidth multivariate Epanechnikov estimate, Eq. (5)-(6);
* the *adaptive* estimate, Eq. (7)-(9), whose local bandwidths
  ``lambda_i = (f(m_i) / g) ** -alpha`` widen the kernels at the tails;
* sampling of arbitrarily large synthetic populations from the estimate —
  the mechanism that turns 100 Monte Carlo devices into the 10^5-sample
  tail-enhanced datasets S2 and S5.

Fingerprint populations are heavily correlated, so the estimator operates in
whitened coordinates by default (Silverman's pre-whitening advice), using
the floored :class:`~repro.stats.preprocessing.Whitener`.  The eigenvalue
floor bounds how much tail enhancement can inflate near-degenerate
directions — exactly the directions in which a Trojan displaces a device.

Density evaluation is fully vectorized: queries are processed in blocks of
pairwise squared distances (one ``(rows, M)`` float64 scratch matrix per
block, bounded by ``max_block_bytes``), which keeps the adaptive pilot
estimate — an ``O(M^2)`` computation — a handful of BLAS calls instead of
``M`` Python iterations.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.stats.preprocessing import Whitener
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_2d, check_positive

#: Default scratch budget for one block of pairwise distances (64 MB).
DEFAULT_BLOCK_BYTES = 64 * 1024 * 1024


@functools.lru_cache(maxsize=None)
def unit_ball_volume(d: int) -> float:
    """Volume c_d of the d-dimensional unit sphere (Silverman's c_d).

    Memoized by dimension: the volume appears in every kernel evaluation and
    bandwidth rule, and ``math.gamma`` is far from free in hot loops.
    """
    if d <= 0:
        raise ValueError(f"dimension must be positive, got {d}")
    return float(2.0 * math.pi ** (d / 2.0) / (d * math.gamma(d / 2.0)))


def epanechnikov_bandwidth(n: int, d: int) -> float:
    """Silverman's optimal global bandwidth for unit-covariance data.

    h_opt = A(K) * n^(-1/(d+4)),  A(K) = [8 c_d^-1 (d+4) (2 sqrt(pi))^d]^(1/(d+4))
    (Silverman 1986, Eq. 4.15, Epanechnikov kernel).
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if d <= 0:
        raise ValueError(f"d must be positive, got {d}")
    a_k = (8.0 / unit_ball_volume(d) * (d + 4.0) * (2.0 * math.sqrt(math.pi)) ** d) ** (
        1.0 / (d + 4.0)
    )
    return float(a_k * n ** (-1.0 / (d + 4.0)))


def _sample_unit_epanechnikov(count: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` points from the d-dim Epanechnikov kernel density.

    Rejection from the uniform distribution on the unit ball: a uniform-ball
    radius has density ∝ r^(d-1); accepting with probability (1 - r^2)
    yields the kernel's radial law ∝ r^(d-1)(1 - r^2).

    The accept/reject decision depends only on the radius, so directions are
    drawn *after* rejection and only for the accepted rows — at the
    acceptance rate of 2/(d+2) this skips ~d/(d+2) of the Gaussian draws.
    The output is preallocated and filled batch by batch; each batch is
    sized to the remaining deficit, so no growing ``vstack`` copies occur.
    Each batch builds the acceptance bound ``1 - r^2`` in one buffer, keeps
    the accepted radii with ``np.compress`` and draws the directions'
    normals straight into the output rows; the values and the generator's
    stream are those of drawing every array fresh.
    """
    out = np.empty((count, d))
    filled = 0
    proposals = 0
    while filled < count:
        remaining = count - filled
        # Expected acceptance 2/(d+2); 1.2x head-room keeps iterations low.
        batch = max(64, int(remaining * (d + 2) / 2 * 1.2))
        proposals += batch
        radii = rng.random(batch)
        radii **= 1.0 / d
        bound = np.square(radii)
        np.subtract(1.0, bound, out=bound)
        kept = np.compress(rng.random(batch) < bound, radii)
        take = min(kept.shape[0], remaining)
        if take == 0:
            continue
        directions = out[filled:filled + take]
        rng.standard_normal(out=directions)
        norms = np.sqrt(np.einsum("ij,ij->i", directions, directions))
        norms[norms == 0.0] = 1.0
        directions *= (kept[:take] / norms)[:, None]
        filled += take
    if obs_metrics.enabled() and proposals:
        obs_metrics.counter("kde.sampler.proposals").inc(proposals)
        obs_metrics.counter("kde.sampler.accepted").inc(count)
        obs_metrics.histogram("kde.sampler.acceptance_ratio").observe(count / proposals)
    return out


class EpanechnikovKde:
    """Fixed-bandwidth multivariate Epanechnikov KDE (paper Eq. 5).

    Parameters
    ----------
    bandwidth:
        Global bandwidth ``h`` in whitened coordinates; ``None`` selects
        Silverman's rule (:func:`epanechnikov_bandwidth`).
    bandwidth_scale:
        Multiplier on the Silverman bandwidth (ignored when ``bandwidth``
        is given).  Silverman's rule is optimal for unimodal reference
        densities and tends to oversmooth real populations; values below 1
        trade tail reach for fidelity.
    whiten:
        Operate in whitened coordinates (recommended for correlated data).
    floor_ratio / floor_sigma:
        Eigenvalue floor of the internal whitener (relative / absolute);
        bounds tail inflation of near-degenerate directions.
    max_block_bytes:
        Memory budget for one block of the pairwise-distance matrix used by
        density evaluation; larger budgets mean fewer, bigger BLAS calls.
    """

    def __init__(self, bandwidth: Optional[float] = None, bandwidth_scale: float = 1.0,
                 whiten: bool = True, floor_ratio: float = 1e-4,
                 floor_sigma: float = 0.0, max_block_bytes: int = DEFAULT_BLOCK_BYTES):
        if bandwidth is not None:
            check_positive(bandwidth, "bandwidth")
        check_positive(bandwidth_scale, "bandwidth_scale")
        check_positive(max_block_bytes, "max_block_bytes")
        self.bandwidth = bandwidth
        self.bandwidth_scale = float(bandwidth_scale)
        self.whiten = whiten
        self.floor_ratio = floor_ratio
        self.floor_sigma = float(floor_sigma)
        self.max_block_bytes = int(max_block_bytes)
        self._whitener: Optional[Whitener] = None
        self._points: Optional[np.ndarray] = None  # training data, working coords
        self._points_sq: Optional[np.ndarray] = None  # cached row norms ||p_i||^2
        self._h: Optional[float] = None

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------

    def fit(self, data) -> "EpanechnikovKde":
        """Fit the estimate on an ``(M, d)`` sample matrix."""
        data = check_2d(data, "data")
        with span("kde.fit", n=int(data.shape[0]), d=int(data.shape[1])) as fit_span:
            if self.whiten:
                self._whitener = Whitener(
                    floor_ratio=self.floor_ratio, floor_sigma=self.floor_sigma
                ).fit(data)
                self._points = self._whitener.transform(data)
            else:
                self._whitener = None
                self._points = data.copy()
            self._points_sq = np.einsum("ij,ij->i", self._points, self._points)
            n, d = self._points.shape
            if self.bandwidth is not None:
                self._h = self.bandwidth
            else:
                self._h = self.bandwidth_scale * epanechnikov_bandwidth(n, d)
            fit_span.set(bandwidth=self._h)
        obs_metrics.histogram("kde.bandwidth").observe(self._h)
        return self

    def _check_fitted(self):
        if self._points is None:
            raise RuntimeError("KDE must be fitted before use")

    def _to_working(self, points: np.ndarray) -> np.ndarray:
        return self._whitener.transform(points) if self._whitener is not None else points

    def _jacobian(self) -> float:
        """|det d(working)/d(original)| — converts densities between spaces."""
        if self._whitener is None:
            return 1.0
        return float(1.0 / np.prod(self._whitener.scales_))

    @property
    def h(self) -> float:
        """The fitted global bandwidth (whitened coordinates)."""
        self._check_fitted()
        return self._h

    # ------------------------------------------------------------------
    # evaluation & sampling
    # ------------------------------------------------------------------

    def _density_working(self, working: np.ndarray,
                         bandwidths: Optional[np.ndarray] = None) -> np.ndarray:
        """Density in working coordinates; ``bandwidths`` is per-observation.

        f(x) = (1/M) sum_i Ke((x - p_i)/h_i) / h_i^d
             = sum_i max(0, 1 - ||x - p_i||^2 / h_i^2) * w_i,
        with w_i = (d+2) / (2 c_d M h_i^(d+2)) ... folded so the whole block
        reduces to one GEMM for the distances and one GEMV for the weighted
        kernel sum.
        """
        pts = self._points
        m, d = pts.shape
        n = working.shape[0]
        coeff = 0.5 * (d + 2.0) / unit_ball_volume(d)
        if bandwidths is None:
            inv_h_sq = np.full(m, 1.0 / self._h**2)
            weights = np.full(m, coeff / (m * self._h**d))
        else:
            h = np.asarray(bandwidths, dtype=float)
            inv_h_sq = 1.0 / h**2
            weights = coeff / (m * h**d)
        working_sq = np.einsum("ij,ij->i", working, working)
        out = np.empty(n)
        # One (rows, m) float64 scratch block within the memory budget.
        rows = max(1, int(self.max_block_bytes // (8 * m)))
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            block = working[start:stop]
            # Squared distances via the expansion ||x||^2 + ||p||^2 - 2 x.p.
            sq = block @ pts.T
            sq *= -2.0
            sq += working_sq[start:stop, None]
            sq += self._points_sq[None, :]
            np.maximum(sq, 0.0, out=sq)
            sq *= inv_h_sq[None, :]
            np.subtract(1.0, sq, out=sq)
            np.maximum(sq, 0.0, out=sq)
            out[start:stop] = sq @ weights
        return out

    def density(self, points) -> np.ndarray:
        """Estimated density f(m) at each row of ``points`` (original space)."""
        self._check_fitted()
        points = check_2d(points, "points")
        with span("kde.density", n=int(points.shape[0]), m=int(self._points.shape[0])):
            working = self._to_working(points)
            return self._density_working(working) * self._jacobian()

    def sample(self, size: int, rng: SeedLike = None) -> np.ndarray:
        """Draw ``size`` synthetic observations from the estimate."""
        self._check_fitted()
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        with span("kde.sample", size=size, d=int(self._points.shape[1])):
            gen = as_generator(rng)
            m, d = self._points.shape
            centers = gen.integers(0, m, size=size)
            offsets = _sample_unit_epanechnikov(size, d, gen)
            offsets *= self._h
            working = np.take(self._points, centers, axis=0)
            working += offsets
            if self._whitener is not None:
                return self._whitener.inverse_transform(working)
            return working


class AdaptiveKde(EpanechnikovKde):
    """Adaptive-bandwidth Epanechnikov KDE (paper Eq. 7-9).

    A pilot fixed-bandwidth estimate assigns each observation a local
    bandwidth factor ``lambda_i = (f(m_i)/g)^-alpha`` (``g`` the geometric
    mean of the pilot densities), widening kernels in low-density regions —
    the distribution tails that matter when drawing a trusted boundary.

    Parameters
    ----------
    alpha:
        Tail sensitivity in [0, 1].  ``alpha = 0`` reduces to the fixed
        estimate; the paper's convention (and Silverman's default) is 0.5.
    """

    def __init__(self, alpha: float = 0.5, bandwidth: Optional[float] = None,
                 bandwidth_scale: float = 1.0, whiten: bool = True,
                 floor_ratio: float = 1e-4, floor_sigma: float = 0.0,
                 max_block_bytes: int = DEFAULT_BLOCK_BYTES):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        super().__init__(
            bandwidth=bandwidth,
            bandwidth_scale=bandwidth_scale,
            whiten=whiten,
            floor_ratio=floor_ratio,
            floor_sigma=floor_sigma,
            max_block_bytes=max_block_bytes,
        )
        self.alpha = float(alpha)
        #: The fitted local bandwidth factors lambda_i, one per observation.
        self._lambdas: Optional[np.ndarray] = None

    def fit(self, data) -> "AdaptiveKde":
        """Fit pilot estimate, then the local bandwidth factors (Eq. 8-9)."""
        with span("kde.fit_adaptive", alpha=self.alpha) as fit_span:
            super().fit(data)
            with span("kde.pilot_density", m=int(self._points.shape[0])):
                pilot = self._density_working(self._points)
            # Guard against zero pilot density (isolated points with tiny h).
            positive = np.clip(pilot, np.finfo(float).tiny, None)
            log_g = float(np.mean(np.log(positive)))
            g = math.exp(log_g)
            self._lambdas = (positive / g) ** (-self.alpha)
            fit_span.set(lambda_min=float(self._lambdas.min()),
                         lambda_max=float(self._lambdas.max()))
        obs_metrics.histogram("kde.lambda_max").observe(float(self._lambdas.max()))
        return self

    def density(self, points) -> np.ndarray:
        """Adaptive density estimate f_alpha(m) at each row of ``points``."""
        self._check_fitted()
        points = check_2d(points, "points")
        with span("kde.density", n=int(points.shape[0]),
                  m=int(self._points.shape[0]), adaptive=True):
            working = self._to_working(points)
            bandwidths = self._h * self._lambdas
            return (
                self._density_working(working, bandwidths=bandwidths)
                * self._jacobian()
            )

    def sample(self, size: int, rng: SeedLike = None) -> np.ndarray:
        """Draw ``size`` synthetic observations, honoring local bandwidths."""
        self._check_fitted()
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        with span("kde.sample", size=size, d=int(self._points.shape[1]),
                  adaptive=True):
            gen = as_generator(rng)
            m, d = self._points.shape
            centers = gen.integers(0, m, size=size)
            scales = np.take(self._h * self._lambdas, centers)
            offsets = _sample_unit_epanechnikov(size, d, gen)
            offsets *= scales[:, None]
            working = np.take(self._points, centers, axis=0)
            working += offsets
            if self._whitener is not None:
                return self._whitener.inverse_transform(working)
            return working
