"""Configuration of the golden chip-free detector."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.utils.validation import check_in_range, check_positive, check_probability

#: Fields earlier versions of :class:`DetectorConfig` carried that no longer
#: exist, each with the one value it may still hold (``None``: any value).
#: Bundles and saved configs still contain them; loaders drop a retired key
#: that holds its allowed value, refuse any other value (it selected a path
#: that no longer exists) and reject every other unknown key.
RETIRED_KEYS = {
    "engine": None,
    "boundary_method": "ocsvm",
    "regression_mode": "latent_gain",
}


@dataclass
class DetectorConfig:
    """All tunables of the detection pipeline, with paper defaults.

    Parameters
    ----------
    n_monte_carlo:
        Number of simulated golden devices (paper: 100).
    kde_samples:
        Size of the tail-enhanced synthetic populations S2 and S5
        (paper: 10^5).
    kde_alpha:
        Adaptive-KDE tail sensitivity (Silverman's alpha; 0.5).
    kde_bandwidth:
        Global KDE bandwidth override; ``None`` = Silverman's rule.
    kde_bandwidth_scale:
        Multiplier on the Silverman bandwidth for the tail-enhancement KDE.
    floor_ratio:
        Relative eigenvalue floor (fraction of the top eigenvalue) used by
        both the boundary whitener and the KDE whitener.
    noise_floor_rel:
        Absolute whitener floor, as a fraction of the mean fingerprint
        magnitude of the training population.  This encodes the bench
        measurement-noise level: directions of the golden population with
        less spread than the noise floor are resolved only down to the
        floor, so noisy golden devices stay inside the boundary while
        Trojan-induced off-manifold displacement (several times the noise)
        stays outside.  Default: twice the power meter's 0.15 % gain noise.
    svm_nu:
        One-class SVM ν (outlier budget).
    svm_gamma:
        RBF gamma in whitened coordinates; ``None`` = median heuristic.
    svm_max_training_samples:
        Subsampling cap for the SVM on the 10^5-point KDE sets.
    kmm_B / kmm_eps / kmm_gamma:
        Kernel mean matching tuning parameters (Section 2.4); ``None`` eps
        selects ``(sqrt(n)-1)/sqrt(n)``, ``None`` gamma the median
        heuristic.
    kmm_resample_size:
        Size of the mean-shifted PCM population m''_p drawn by importance
        resampling (paper: 100, same as the Monte Carlo size).
    mars_max_terms / mars_max_degree:
        MARS forward-pass capacity for the PCM -> fingerprint regressions.
    seed:
        Master seed for every stochastic pipeline step.
    n_jobs:
        Worker processes for the independent boundary fits (clamped to the
        CPU count; negative = joblib convention).  Results are bit-identical
        for every value: each boundary owns a child generator spawned from
        the master seed.
    """

    n_monte_carlo: int = 100
    kde_samples: int = 100_000
    kde_alpha: float = 0.5
    kde_bandwidth: Optional[float] = None
    kde_bandwidth_scale: float = 0.7
    floor_ratio: float = 2e-3
    noise_floor_rel: float = 0.007
    svm_nu: float = 0.08
    svm_gamma: Optional[float] = None
    svm_max_training_samples: int = 1500
    kmm_B: float = 10.0
    kmm_eps: Optional[float] = None
    kmm_gamma: Optional[float] = None
    kmm_resample_size: int = 100
    mars_max_terms: int = 15
    mars_max_degree: int = 1
    mars_penalty: float = 2.0
    seed: Optional[int] = 11
    n_jobs: int = 1

    def __post_init__(self):
        if self.n_monte_carlo < 10:
            raise ValueError(f"n_monte_carlo must be >= 10, got {self.n_monte_carlo}")
        if self.kde_samples < 1:
            raise ValueError(f"kde_samples must be positive, got {self.kde_samples}")
        check_in_range(self.kde_alpha, 0.0, 1.0, "kde_alpha")
        check_positive(self.kde_bandwidth_scale, "kde_bandwidth_scale")
        check_in_range(self.noise_floor_rel, 0.0, 1.0, "noise_floor_rel")
        if self.kde_bandwidth is not None:
            check_positive(self.kde_bandwidth, "kde_bandwidth")
        check_probability(self.svm_nu, "svm_nu")
        check_in_range(self.floor_ratio, 1e-12, 1.0, "floor_ratio")
        check_positive(self.kmm_B, "kmm_B")
        if self.kmm_resample_size < 1:
            raise ValueError(
                f"kmm_resample_size must be positive, got {self.kmm_resample_size}"
            )
        if self.svm_max_training_samples < 10:
            raise ValueError(
                "svm_max_training_samples must be >= 10, "
                f"got {self.svm_max_training_samples}"
            )
        if not isinstance(self.n_jobs, int) or isinstance(self.n_jobs, bool):
            raise ValueError(f"n_jobs must be an integer, got {self.n_jobs!r}")


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
