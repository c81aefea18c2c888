"""Configuration of the golden chip-free detector."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.utils.validation import check_in_range

#: Relative eigenvalue floor (fraction of the top eigenvalue) of both the
#: boundary whitener and the tail-enhancement KDE whitener.
FLOOR_RATIO = 2e-3
#: Multiplier on the Silverman bandwidth of the tail-enhancement KDE.
KDE_BANDWIDTH_SCALE = 0.7
#: Size of the mean-shifted PCM population m''_p that importance resampling
#: draws after kernel mean matching (paper: 100, the Monte Carlo size).
KMM_RESAMPLE_SIZE = 100
#: MARS forward-pass capacity and GCV penalty of the PCM -> fingerprint
#: regressions (additive, degree-1 models).
MARS_MAX_TERMS = 15
MARS_PENALTY = 2.0

#: Fields earlier versions of :class:`DetectorConfig` carried that no longer
#: exist, each with the one value it may still hold (``None``: any value).
#: Bundles and saved configs still contain them; loaders drop a retired key
#: that holds its allowed value, refuse any other value (it selected a path
#: that no longer exists) and reject every other unknown key.  A restored
#: detector only scores: each boundary carries its own fitted ν, γ and
#: whitener floors, so the retired fitting knobs load with any value.
RETIRED_KEYS = {
    "engine": None,
    "boundary_method": "ocsvm",
    "regression_mode": "latent_gain",
    "n_monte_carlo": None,
    "n_jobs": None,
    "kde_bandwidth": None,
    "kde_bandwidth_scale": None,
    "floor_ratio": None,
    "noise_floor_rel": None,
    "svm_nu": None,
    "svm_gamma": None,
    "kmm_B": None,
    "kmm_eps": None,
    "kmm_gamma": None,
    "kmm_resample_size": None,
    "mars_max_terms": None,
    "mars_max_degree": None,
    "mars_penalty": None,
}


@dataclass
class DetectorConfig:
    """The settable choices of the detection pipeline, with paper defaults.

    Everything else the paper fixes once has one home: ν and the noise floor
    are :class:`~repro.core.boundaries.TrustedRegion` defaults, the KMM bound
    B is the :class:`~repro.stats.kmm.KernelMeanMatcher` default, and the
    KDE, whitener, resampling and MARS settings are the constants above.

    Parameters
    ----------
    kde_samples:
        Size of the tail-enhanced synthetic populations S2 and S5
        (paper: 10^5).
    kde_alpha:
        Adaptive-KDE tail sensitivity (Silverman's alpha; 0.5).
    svm_max_training_samples:
        Subsampling cap for the SVM on the 10^5-point KDE sets.
    seed:
        Master seed for every stochastic pipeline step.
    """

    kde_samples: int = 100_000
    kde_alpha: float = 0.5
    svm_max_training_samples: int = 1500
    seed: Optional[int] = 11

    def __post_init__(self):
        if self.kde_samples < 1:
            raise ValueError(f"kde_samples must be positive, got {self.kde_samples}")
        check_in_range(self.kde_alpha, 0.0, 1.0, "kde_alpha")
        if self.svm_max_training_samples < 10:
            raise ValueError(
                "svm_max_training_samples must be >= 10, "
                f"got {self.svm_max_training_samples}"
            )


def drop_retired_keys(raw: dict, retired: dict = RETIRED_KEYS) -> dict:
    """``raw`` without its ``retired`` keys (default :data:`RETIRED_KEYS`).

    Persisted configs stay loadable as long as each retired key holds its
    allowed value; any other value raises ``ValueError`` naming the key and
    the value, instead of silently loading as the one remaining path.
    """
    for key, allowed in retired.items():
        if key in raw and allowed is not None and raw[key] != allowed:
            raise ValueError(
                f"retired key {key!r} = {raw[key]!r} is no longer supported "
                f"(only {allowed!r} still loads)"
            )
    return {key: value for key, value in raw.items() if key not in retired}
