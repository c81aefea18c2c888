"""Mahalanobis-distance one-class classifier (elliptic envelope).

A parametric alternative to the one-class SVM for learning the trusted
region: fit mean and covariance of the golden population (with the same
eigenvalue-floor regularization the whitener uses) and threshold the squared
Mahalanobis distance at a chi-square quantile.  The paper notes the
classifier choice is open ("e.g. neural network, support vector machine");
ablation A7 compares this envelope against the SVM.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.validation import check_2d, check_probability


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

    def to_state(self) -> dict:
        """Codec state of the fitted envelope (see :mod:`repro.cache.codec`)."""
        self._check_fitted()
        return {
            "params": {
                "contamination": self.contamination,
                "floor_ratio": self.floor_ratio,
                "floor_sigma": self.floor_sigma,
            },
            "mean": self.mean_,
            "inv_scales": self._inv_scales,
            "components": self._components,
            "threshold": float(self.threshold_),
        }

    @classmethod
    def from_state(cls, state: dict) -> "EllipticEnvelope":
        """Rebuild a fitted envelope from :meth:`to_state` output."""
        model = cls(**state["params"])
        model.mean_ = np.asarray(state["mean"], dtype=float)
        model._inv_scales = np.asarray(state["inv_scales"], dtype=float)
        model._components = np.asarray(state["components"], dtype=float)
        model.threshold_ = float(state["threshold"])
        return model
