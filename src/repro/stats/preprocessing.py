"""Feature preprocessing: (floored) whitening.

Side-channel fingerprints are strongly correlated — all six block powers
scale with the same device gain — so the informative structure (a Trojan's
block-dependent distortion) lives in directions whose variance is orders of
magnitude below the dominant process direction.  The boundary learner and
the KDE tail enhancer therefore operate in *whitened* coordinates.

Whitening a near-degenerate population is ill-posed (tiny eigenvalues blow
up), so :class:`Whitener` floors every eigenvalue — relatively, at
``floor_ratio`` times the largest one, and/or absolutely at ``floor_sigma``
squared.  The floor sets the minimum feature-space scale the trusted region
resolves: directions whose variation is below the floor are treated as "no
broader than the floor", which keeps the boundary tight against
Trojan-induced off-manifold displacement while tolerating bench measurement
noise (the natural choice for ``floor_sigma`` is a small multiple of the
instruments' noise sigma).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_2d


class Whitener:
    """PCA whitening with an eigenvalue floor.

    Transforms data to coordinates where the training covariance is the
    identity, except that eigenvalues are floored at
    ``floor_ratio * max(eigenvalue)`` before inversion.  With
    ``floor_ratio=1`` this degenerates to isotropic scaling by the dominant
    sigma; with ``floor_ratio -> 0`` it approaches exact whitening.

    Parameters
    ----------
    floor_ratio:
        Minimum eigenvalue, as a fraction of the largest eigenvalue.
    floor_sigma:
        Absolute minimum standard deviation per component (same units as the
        data).  Typically a small multiple of the measurement-noise sigma.
    """

    def __init__(self, floor_ratio: float = 1e-4, floor_sigma: float = 0.0):
        if not 0 < floor_ratio <= 1:
            raise ValueError(f"floor_ratio must be in (0, 1], got {floor_ratio}")
        if floor_sigma < 0:
            raise ValueError(f"floor_sigma must be non-negative, got {floor_sigma}")
        self.floor_ratio = float(floor_ratio)
        self.floor_sigma = float(floor_sigma)
        self.mean_ = None
        self.components_ = None          # (d, d) eigenvectors in rows
        self.scales_ = None              # (d,) floored standard deviations per component

    def fit(self, data) -> "Whitener":
        """Learn the whitening transform from ``data``."""
        data = check_2d(data, "data")
        self.mean_ = data.mean(axis=0)
        centered = data - self.mean_
        cov = centered.T @ centered / max(1, data.shape[0] - 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        order = np.argsort(eigvals)[::-1]
        eigvals = eigvals[order]
        eigvecs = eigvecs[:, order]
        top = max(eigvals[0], 0.0)
        if top <= 0.0 and self.floor_sigma <= 0.0:
            # Degenerate population (single point / constant data): identity.
            self.components_ = np.eye(data.shape[1])
            self.scales_ = np.ones(data.shape[1])
            return self
        floor = max(self.floor_ratio * top, self.floor_sigma**2)
        floored = np.maximum(eigvals, floor)
        self.components_ = eigvecs.T
        self.scales_ = np.sqrt(floored)
        return self

    def _check_fitted(self):
        if self.mean_ is None:
            raise RuntimeError("Whitener must be fitted before use")

    def transform(self, data) -> np.ndarray:
        """Project ``data`` to whitened coordinates."""
        self._check_fitted()
        data = check_2d(data, "data")
        if data.shape[1] != self.mean_.shape[0]:
            raise ValueError(
                f"data has {data.shape[1]} features, whitener was fitted on "
                f"{self.mean_.shape[0]}"
            )
        whitened = (data - self.mean_) @ self.components_.T
        whitened /= self.scales_
        return whitened

    def inverse_transform(self, data) -> np.ndarray:
        """Map whitened coordinates back to the original space."""
        self._check_fitted()
        data = check_2d(data, "data")
        restored = (data * self.scales_) @ self.components_
        restored += self.mean_
        return restored

    def to_state(self) -> dict:
        """Codec state of the fitted transform (see :mod:`repro.cache.codec`)."""
        self._check_fitted()
        return {
            "params": {
                "floor_ratio": self.floor_ratio,
                "floor_sigma": self.floor_sigma,
            },
            "mean": self.mean_,
            "components": self.components_,
            "scales": self.scales_,
        }

    @classmethod
    def from_state(cls, state: dict) -> "Whitener":
        """Rebuild a fitted transform from :meth:`to_state` output."""
        model = cls(**state["params"])
        model.mean_ = np.asarray(state["mean"], dtype=float)
        model.components_ = np.asarray(state["components"], dtype=float)
        model.scales_ = np.asarray(state["scales"], dtype=float)
        return model
