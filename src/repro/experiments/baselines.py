"""Baselines of the classifier-choice and tail-modeling ablations (A7).

Neither is part of the detector; :mod:`repro.experiments.ablations` is
their only caller.

* :class:`EllipticEnvelope` — a parametric alternative to the one-class SVM
  for learning the trusted region: fit mean and covariance of the golden
  population (with the same eigenvalue-floor regularization the whitener
  uses) and threshold the squared Mahalanobis distance at a chi-square
  quantile.  The paper notes the classifier choice is open ("e.g. neural
  network, support vector machine"); A7a injects this envelope into a
  :class:`~repro.core.boundaries.TrustedRegion` in place of the SVM.
* :class:`GpdTailEnhancer` — extreme-value theory's classical parametric
  alternative to the paper's adaptive-KDE tail enhancement.  It models a
  population in whitened coordinates as (direction, radius): directions are
  bootstrapped from the data, radii follow the empirical distribution below
  a threshold and a fitted Generalized Pareto Distribution (GPD) above it —
  the Pickands-Balkema-de Haan limit for threshold exceedances.  A7b builds
  S5 with it instead of the KDE.

scipy is imported inside the methods that compute with it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.stats.preprocessing import Whitener
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_2d, check_in_range, check_probability


class EllipticEnvelope:
    """Gaussian trusted region via a floored Mahalanobis distance.

    Parameters
    ----------
    contamination:
        Expected fraction of training outliers; sets the chi-square quantile
        of the decision threshold (analogous to the SVM's ν).
    floor_ratio:
        Relative eigenvalue floor on the covariance.
    floor_sigma:
        Absolute per-direction floor (same units as the data).
    """

    def __init__(self, contamination: float = 0.05, floor_ratio: float = 1e-6,
                 floor_sigma: float = 0.0):
        check_probability(contamination, "contamination")
        if not 0 < floor_ratio <= 1:
            raise ValueError(f"floor_ratio must be in (0, 1], got {floor_ratio}")
        if floor_sigma < 0:
            raise ValueError(f"floor_sigma must be non-negative, got {floor_sigma}")
        self.contamination = float(contamination)
        self.floor_ratio = float(floor_ratio)
        self.floor_sigma = float(floor_sigma)
        self.mean_: Optional[np.ndarray] = None
        self._inv_scales: Optional[np.ndarray] = None
        self._components: Optional[np.ndarray] = None
        self.threshold_: Optional[float] = None

    def fit(self, data) -> "EllipticEnvelope":
        """Estimate the envelope from an inlier sample."""
        data = check_2d(data, "data")
        n, d = data.shape
        self.mean_ = data.mean(axis=0)
        centered = data - self.mean_
        cov = centered.T @ centered / max(1, n - 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        top = max(float(eigvals.max()), 0.0)
        floor = max(self.floor_ratio * top, self.floor_sigma**2, 1e-300)
        eigvals = np.maximum(eigvals, floor)
        self._components = eigvecs.T
        self._inv_scales = 1.0 / np.sqrt(eigvals)
        # chi2.ppf(q, d) as scipy evaluates it, without importing scipy.stats.
        from scipy.special import gammaincinv

        self.threshold_ = float(2.0 * gammaincinv(d / 2.0, 1.0 - self.contamination))
        return self

    def _check_fitted(self):
        if self.mean_ is None:
            raise RuntimeError("EllipticEnvelope must be fitted before use")

    def mahalanobis_squared(self, points) -> np.ndarray:
        """Squared (floored) Mahalanobis distance of each row."""
        self._check_fitted()
        points = check_2d(points, "points")
        whitened = (points - self.mean_) @ self._components.T * self._inv_scales
        return np.sum(whitened**2, axis=1)

    def decision_function(self, points) -> np.ndarray:
        """Positive inside the envelope, negative outside."""
        return self.threshold_ - self.mahalanobis_squared(points)

    def predict_inside(self, points) -> np.ndarray:
        """Boolean array: True where a point lies inside the envelope."""
        return self.decision_function(points) >= 0.0


class GpdTailEnhancer:
    """Synthetic population generator with a generalized Pareto radial tail.

    Parameters
    ----------
    threshold_quantile:
        Radius quantile above which exceedances are modelled by the GPD
        (the remaining body is resampled empirically).
    shape_cap:
        Upper clip on the fitted GPD shape parameter xi; heavy-tailed fits
        (xi near or above 1) have infinite mean and would produce absurd
        synthetic devices, so the fit is capped.
    floor_ratio / floor_sigma:
        Whitener floors (as in the KDE enhancer).
    """

    def __init__(self, threshold_quantile: float = 0.7, shape_cap: float = 0.5,
                 floor_ratio: float = 1e-6, floor_sigma: float = 0.0):
        check_in_range(threshold_quantile, 0.5, 0.95, "threshold_quantile")
        if shape_cap <= 0:
            raise ValueError(f"shape_cap must be positive, got {shape_cap}")
        self.threshold_quantile = float(threshold_quantile)
        self.shape_cap = float(shape_cap)
        self.floor_ratio = float(floor_ratio)
        self.floor_sigma = float(floor_sigma)
        self._whitener: Optional[Whitener] = None
        self._radii: Optional[np.ndarray] = None
        self._directions: Optional[np.ndarray] = None
        self.threshold_: Optional[float] = None
        self.gpd_shape_: Optional[float] = None
        self.gpd_scale_: Optional[float] = None

    def fit(self, data) -> "GpdTailEnhancer":
        """Fit the body/tail radial model on an ``(M, d)`` sample matrix."""
        from scipy import stats

        data = check_2d(data, "data")
        self._whitener = Whitener(
            floor_ratio=self.floor_ratio, floor_sigma=self.floor_sigma
        ).fit(data)
        whitened = self._whitener.transform(data)
        radii = np.linalg.norm(whitened, axis=1)
        positive = radii > 0
        directions = np.zeros_like(whitened)
        directions[positive] = whitened[positive] / radii[positive, None]
        self._radii = radii
        self._directions = directions

        self.threshold_ = float(np.quantile(radii, self.threshold_quantile))
        exceedances = radii[radii > self.threshold_] - self.threshold_
        if exceedances.size >= 5 and exceedances.max() > 0:
            shape, _, scale = stats.genpareto.fit(exceedances, floc=0.0)
            self.gpd_shape_ = float(np.clip(shape, -0.9, self.shape_cap))
            self.gpd_scale_ = float(max(scale, 1e-12))
        else:
            # Too few exceedances: exponential fallback (xi = 0).
            self.gpd_shape_ = 0.0
            mean_exc = float(exceedances.mean()) if exceedances.size else 0.1
            self.gpd_scale_ = max(mean_exc, 1e-12)
        return self

    def _check_fitted(self):
        if self._radii is None:
            raise RuntimeError("GpdTailEnhancer must be fitted before use")

    def sample(self, size: int, rng: SeedLike = None) -> np.ndarray:
        """Draw ``size`` synthetic observations (original coordinates).

        Each draw bootstraps a direction from the data; with probability
        ``1 - threshold_quantile`` the radius is a fresh GPD exceedance above
        the threshold, otherwise a bootstrap of the empirical body radii.
        """
        from scipy import stats

        self._check_fitted()
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        gen = as_generator(rng)
        m = self._radii.shape[0]

        directions = self._directions[gen.integers(0, m, size=size)]
        body = self._radii[self._radii <= self.threshold_]
        if body.size == 0:
            body = self._radii
        radii = body[gen.integers(0, body.size, size=size)].astype(float)
        tail_mask = gen.random(size) > self.threshold_quantile
        n_tail = int(tail_mask.sum())
        if n_tail:
            exceedances = stats.genpareto.rvs(
                self.gpd_shape_, loc=0.0, scale=self.gpd_scale_,
                size=n_tail, random_state=gen,
            )
            radii[tail_mask] = self.threshold_ + exceedances
        samples = directions * radii[:, None]
        return self._whitener.inverse_transform(samples)

    def tail_quantile(self, probability: float) -> float:
        """Radius (whitened units) exceeded with the given tail probability."""
        from scipy import stats

        self._check_fitted()
        check_in_range(probability, 0.0, 1.0 - self.threshold_quantile, "probability")
        conditional = probability / (1.0 - self.threshold_quantile)
        exceedance = stats.genpareto.ppf(
            1.0 - conditional, self.gpd_shape_, loc=0.0, scale=self.gpd_scale_
        )
        return float(self.threshold_ + exceedance)
