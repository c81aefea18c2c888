"""Trusted-region boundaries: whitened-space one-class SVMs.

Each of the paper's boundaries B1..B5 is the same construction applied to a
different training population: whiten the population (with an eigenvalue
floor — fingerprints are strongly correlated and synthetic populations can
be rank-deficient), then fit a ν-one-class SVM in whitened coordinates.

The whitening step is what gives the boundary its sensitivity: process
variation spans few directions of the six-dimensional fingerprint space,
while a Trojan's key-dependent modulation displaces a device *off* that
manifold.  In whitened coordinates such off-manifold displacement is large
even when it is small in absolute power.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import FLOOR_RATIO, drop_retired_keys
from repro.learn.ocsvm import OneClassSvm
from repro.obs.trace import span
from repro.stats.preprocessing import Whitener
from repro.utils.rng import SeedLike
from repro.utils.validation import check_2d


def trojan_free(scores: np.ndarray) -> np.ndarray:
    """The paper's Trojan test (Section 2.3) on boundary decision scores.

    A device is Trojan-free where its decision score is non-negative: its
    fingerprint lies inside the trusted region.  Every verdict the detector
    and the screening service report comes from here.
    """
    return scores >= 0.0


class TrustedRegion:
    """A named trusted-region boundary (whitener + one-class SVM).

    Parameters
    ----------
    name:
        Boundary label (``"B1"``..``"B5"`` in the paper flow).
    nu / gamma:
        One-class SVM parameters: ν is the outlier budget (the paper
        pipeline's 0.08), gamma ``None`` the median heuristic in whitened
        space.
    floor_ratio:
        Relative eigenvalue floor of the whitener.
    noise_floor_rel:
        Absolute whitener floor, as a fraction of the training population's
        mean fingerprint magnitude.  This encodes the bench measurement-noise
        level: directions of the golden population with less spread than
        the noise floor are resolved only down to the floor, so noisy golden
        devices stay inside the boundary while Trojan-induced off-manifold
        displacement (several times the noise) stays outside.  Default:
        twice the power meter's 0.15 % gain noise.
    max_training_samples:
        Subsampling cap passed to the SVM.
    seed:
        Seed for the (deterministic) subsampling.
    learner:
        One-class learner fitted in whitened coordinates; ``None`` builds the
        paper's ν-one-class SVM from the parameters above.  Any object with
        ``fit`` and ``decision_function`` works (ablation A7 injects a
        Mahalanobis envelope).
    """

    #: Region params earlier versions wrote, with the one value still loadable.
    RETIRED_PARAMS = {"method": "ocsvm"}

    def __init__(
        self,
        name: str = "B",
        nu: float = 0.08,
        gamma: Optional[float] = None,
        floor_ratio: float = FLOOR_RATIO,
        noise_floor_rel: float = 0.007,
        max_training_samples: int = 1500,
        seed: SeedLike = None,
        learner=None,
    ):
        if noise_floor_rel < 0:
            raise ValueError(f"noise_floor_rel must be non-negative, got {noise_floor_rel}")
        self.name = name
        self.floor_ratio = float(floor_ratio)
        self.noise_floor_rel = float(noise_floor_rel)
        self._whitener: Optional[Whitener] = None
        if learner is None:
            learner = OneClassSvm(
                nu=nu,
                gamma=gamma,
                max_training_samples=max_training_samples,
                seed=seed,
            )
        self._learner = learner
        self.n_training_samples_: Optional[int] = None
        self.n_features_: Optional[int] = None

    def fit(self, population) -> "TrustedRegion":
        """Learn the boundary enclosing a golden fingerprint ``population``."""
        population = check_2d(population, "population")
        with span("boundary.fit", boundary=self.name, n=int(population.shape[0])):
            self.n_training_samples_ = population.shape[0]
            self.n_features_ = population.shape[1]
            floor_sigma = self.noise_floor_rel * float(np.mean(np.abs(population)))
            self._whitener = Whitener(
                floor_ratio=self.floor_ratio, floor_sigma=floor_sigma
            ).fit(population)
            # The SVM trains on a subsample of large populations: whiten
            # only those rows (the same bits as whitening all and taking
            # them).  Injected learners see every row.
            if isinstance(self._learner, OneClassSvm):
                idx = self._learner.training_indices(population.shape[0])
                if idx is not None:
                    population = population[idx]
            self._learner.fit(self._whitener.transform(population))
        return self

    def _check_fitted(self):
        if self.n_training_samples_ is None:
            raise RuntimeError(f"TrustedRegion {self.name!r} must be fitted before use")

    def decision_scores(self, fingerprints, validate: bool = True) -> np.ndarray:
        """Decision values; :func:`trojan_free` turns them into verdicts.

        ``validate=False`` skips the shape/finiteness coercion for callers
        that already validated the batch once (e.g. the pipeline's
        :meth:`~repro.core.pipeline.GoldenChipFreeDetector.classify_batch`,
        which scores the same device block against several boundaries) —
        the scores themselves are identical either way.
        """
        self._check_fitted()
        if validate:
            fingerprints = check_2d(fingerprints, "fingerprints")
            if fingerprints.shape[1] != self.n_features:
                raise ValueError(
                    f"fingerprints have {fingerprints.shape[1]} features, "
                    f"boundary {self.name!r} was trained on {self.n_features}"
                )
        return self._learner.decision_function(self._whitener.transform(fingerprints))

    def predict_trojan_free(self, fingerprints) -> np.ndarray:
        """Boolean array: True where a device is classified Trojan-free."""
        return trojan_free(self.decision_scores(fingerprints))

    @property
    def n_features(self) -> Optional[int]:
        """Feature width the boundary was trained on (``None`` before fit).

        Falls back to the whitener's mean width for boundaries restored
        from state written before the width was recorded explicitly.
        """
        if self.n_features_ is not None:
            return self.n_features_
        if self._whitener is not None and self._whitener.mean_ is not None:
            return int(self._whitener.mean_.shape[0])
        return None

    @property
    def whitener(self) -> Whitener:
        """The fitted whitener (for diagnostics and visualization)."""
        return self._whitener

    @property
    def svm(self) -> OneClassSvm:
        """The fitted one-class SVM (the injected learner, if one was given)."""
        return self._learner

    def to_state(self) -> dict:
        """Codec state of the fitted boundary (see :mod:`repro.cache.codec`)."""
        self._check_fitted()
        return {
            "params": {
                "name": self.name,
                "floor_ratio": self.floor_ratio,
                "noise_floor_rel": self.noise_floor_rel,
            },
            "whitener": self._whitener,
            "learner": self._learner,
            "n_training_samples": int(self.n_training_samples_),
            "n_features": None if self.n_features is None else int(self.n_features),
        }

    @classmethod
    def from_state(cls, state: dict) -> "TrustedRegion":
        """Rebuild a fitted boundary from :meth:`to_state` output."""
        params = drop_retired_keys(state["params"], cls.RETIRED_PARAMS)
        region = cls(**params, learner=state["learner"])
        region._whitener = state["whitener"]
        region.n_training_samples_ = int(state["n_training_samples"])
        # Entries written before the width was recorded lack the key; the
        # n_features property then derives it from the whitener.
        width = state.get("n_features")
        region.n_features_ = None if width is None else int(width)
        return region
