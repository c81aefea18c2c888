"""Reduced-rank regression through a latent device gain.

The six side-channel fingerprints of the platform chip are six block powers
of one transmitter: across process variation they move together through a
single device gain.  Fitting six *independent* regressions (as a literal
reading of the paper suggests) leaves each output free to extrapolate
slightly differently, and those per-output inconsistencies land exactly in
the near-degenerate directions the trusted boundary uses to catch Trojans.

:class:`LatentGainMars` avoids this: it summarizes each device's
fingerprint by a scalar gain (the mean ratio to the per-feature population
means), fits **one** MARS model PCM -> gain, and predicts fingerprints as
``mean_j * gain(pcm)``.  Predictions are consistent across features by
construction.  This is rank-1 reduced-rank regression with a spline link —
the standard remedy for strongly-correlated multi-output regression.

Use :class:`~repro.learn.mars.MultiOutputMars` for the paper-literal
independent mode (kept for the ablation benchmarks).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.learn.mars import MarsRegression
from repro.utils.validation import check_2d, check_matching_rows


class LatentGainMars:
    """Rank-1 multi-output regression: fp_j = mean_j * gain(pcm).

    Parameters are forwarded to the underlying
    :class:`~repro.learn.mars.MarsRegression` on the latent gain.
    """

    def __init__(self, **mars_kwargs):
        self.mars_kwargs = mars_kwargs
        self.feature_means_: Optional[np.ndarray] = None
        self.gain_model_: Optional[MarsRegression] = None

    def fit(self, x, y) -> "LatentGainMars":
        """Fit on ``(n, d)`` PCM inputs and ``(n, m)`` fingerprint targets."""
        x = check_2d(x, "x")
        y = check_2d(y, "y")
        check_matching_rows(x, y, "x", "y")
        means = y.mean(axis=0)
        if np.any(means == 0):
            raise ValueError("fingerprint features with zero mean cannot carry a gain")
        self.feature_means_ = means
        gains = (y / means).mean(axis=1)
        self.gain_model_ = MarsRegression(**self.mars_kwargs).fit(x, gains)
        return self

    def predict(self, x) -> np.ndarray:
        """Predict an ``(n, m)`` fingerprint matrix from PCM inputs."""
        if self.gain_model_ is None:
            raise RuntimeError("LatentGainMars must be fitted before use")
        x = check_2d(x, "x")
        gains = self.gain_model_.predict(x)
        return gains[:, None] * self.feature_means_[None, :]

    def to_state(self) -> dict:
        """Codec state of the fitted model (see :mod:`repro.cache.codec`)."""
        if self.gain_model_ is None:
            raise RuntimeError("LatentGainMars must be fitted before use")
        return {
            "mars_kwargs": dict(self.mars_kwargs),
            "feature_means": self.feature_means_,
            "gain_model": self.gain_model_,
        }

    @classmethod
    def from_state(cls, state: dict) -> "LatentGainMars":
        """Rebuild a fitted model from :meth:`to_state` output."""
        model = cls(**state["mars_kwargs"])
        model.feature_means_ = np.asarray(state["feature_means"], dtype=float)
        model.gain_model_ = state["gain_model"]
        return model
