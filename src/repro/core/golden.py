"""The classical golden-chip detector the paper competes against.

Fig. 1 of the paper: given a representative set of trusted ("golden") chips,
train a one-class classifier on their measured fingerprints and declare any
DUTT outside the learned region Trojan-infested.  This is the luxury the
golden chip-free pipeline removes; the library ships it as the reference
yardstick for head-to-head evaluations (see
``examples/golden_chip_free_audit.py`` and the A7 bench).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.boundaries import TrustedRegion
from repro.core.config import DetectorConfig
from repro.core.metrics import DetectionMetrics, evaluate_detection
from repro.utils.validation import check_2d


class GoldenReferenceDetector:
    """One-class trusted region trained directly on golden-chip fingerprints.

    Uses the same boundary machinery (whitening with a noise floor + ν-SVM,
    at the same defaults) as the golden chip-free pipeline, so
    comparisons isolate exactly one variable: where the training population
    comes from.

    Parameters
    ----------
    config:
        Shared detector configuration (SVM subsampling cap and seed).
    """

    def __init__(self, config: Optional[DetectorConfig] = None):
        self.config = config or DetectorConfig()
        self._region: Optional[TrustedRegion] = None

    def fit(self, golden_fingerprints) -> "GoldenReferenceDetector":
        """Learn the trusted region from measured golden-chip fingerprints."""
        golden_fingerprints = check_2d(golden_fingerprints, "golden_fingerprints")
        self._region = TrustedRegion(
            "golden", max_training_samples=self.config.svm_max_training_samples,
            seed=self.config.seed,
        ).fit(golden_fingerprints)
        return self

    def _check_fitted(self):
        if self._region is None:
            raise RuntimeError("GoldenReferenceDetector must be fitted before use")

    @property
    def region(self) -> TrustedRegion:
        """The fitted trusted region."""
        self._check_fitted()
        return self._region

    def classify(self, fingerprints) -> np.ndarray:
        """True = Trojan-free (inside the golden region)."""
        self._check_fitted()
        return self._region.predict_trojan_free(fingerprints)

    def evaluate(self, fingerprints, infested) -> DetectionMetrics:
        """FP/FN over a labelled DUTT population."""
        return evaluate_detection(self.classify(fingerprints), infested)
