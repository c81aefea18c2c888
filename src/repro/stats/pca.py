"""Principal Component Analysis via SVD.

Used for the paper's Figure 4: the six-dimensional fingerprint populations
are projected on their top three principal components for visualization and
geometry summaries.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.validation import check_2d


class PrincipalComponentAnalysis:
    """Exact PCA through the thin SVD of the centred data matrix.

    Parameters
    ----------
    n_components:
        Number of components to keep; ``None`` keeps ``min(n, d)``.
    """

    def __init__(self, n_components: Optional[int] = None):
        if n_components is not None and n_components <= 0:
            raise ValueError(f"n_components must be positive, got {n_components}")
        self.n_components = n_components
        self.mean_: Optional[np.ndarray] = None
        self.components_: Optional[np.ndarray] = None
        self.explained_variance_: Optional[np.ndarray] = None
        self.explained_variance_ratio_: Optional[np.ndarray] = None

    def fit(self, data) -> "PrincipalComponentAnalysis":
        """Learn the principal axes of ``data`` (rows = samples)."""
        data = check_2d(data, "data")
        n, d = data.shape
        k = min(n, d) if self.n_components is None else min(self.n_components, min(n, d))
        self.mean_ = data.mean(axis=0)
        centered = data - self.mean_
        _, singular, vt = np.linalg.svd(centered, full_matrices=False)
        variance = singular**2 / max(1, n - 1)
        total = variance.sum()
        self.components_ = vt[:k]
        self.explained_variance_ = variance[:k]
        self.explained_variance_ratio_ = (
            variance[:k] / total if total > 0 else np.zeros(k)
        )
        return self

    def _check_fitted(self):
        if self.components_ is None:
            raise RuntimeError("PCA must be fitted before use")

    def transform(self, data) -> np.ndarray:
        """Project ``data`` on the fitted principal axes."""
        self._check_fitted()
        data = check_2d(data, "data")
        if data.shape[1] != self.mean_.shape[0]:
            raise ValueError(
                f"data has {data.shape[1]} features, PCA was fitted on {self.mean_.shape[0]}"
            )
        return (data - self.mean_) @ self.components_.T

    def inverse_transform(self, scores) -> np.ndarray:
        """Reconstruct (an approximation of) the original data from scores."""
        self._check_fitted()
        scores = check_2d(scores, "scores")
        return scores @ self.components_ + self.mean_
