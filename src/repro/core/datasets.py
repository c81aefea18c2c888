"""Builders for the paper's datasets S1 through S5 (Section 3.2).

=====  ====================================================================
set    contents
=====  ====================================================================
S1     n Monte Carlo golden fingerprints (straight from simulation)
S2     KDE tail-enhanced synthetic population generated from S1
S3     fingerprints *predicted* from the fabricated devices' measured PCMs
       through the MARS regressions learned on simulation data
S4     fingerprints predicted from the KMM mean-shifted simulated PCMs
       (simulation PCM population calibrated to the silicon operating
       point)
S5     KDE tail-enhanced synthetic population generated from S4
=====  ====================================================================

Each S_k trains the corresponding trusted boundary B_k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.core.config import DetectorConfig
from repro.learn.latent import LatentGainMars
from repro.stats.kde import AdaptiveKde
from repro.stats.kmm import KernelMeanMatcher, importance_resample
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_2d, check_matching_rows


@dataclass
class DatasetBundle:
    """The five golden-fingerprint populations, keyed ``"S1"``..``"S5"``."""

    sets: Dict[str, np.ndarray] = field(default_factory=dict)

    def __getitem__(self, key: str) -> np.ndarray:
        if key not in self.sets:
            raise KeyError(
                f"dataset {key!r} not built yet; available: {sorted(self.sets)}"
            )
        return self.sets[key]

    def __contains__(self, key: str) -> bool:
        return key in self.sets

    def names(self):
        """Built dataset names, in pipeline order."""
        return [name for name in ("S1", "S2", "S3", "S4", "S5") if name in self.sets]


def train_regressions(sim_pcms, sim_fingerprints, config: DetectorConfig,
                      regression=LatentGainMars):
    """Learn the MARS regressions ``g : m_p -> m`` on simulation data.

    ``regression`` is the multi-output model class, built from the config's
    MARS fields: the consistent latent-gain model by default (ablation A5
    passes the paper-literal per-output
    :class:`~repro.learn.mars.MultiOutputMars`).
    """
    sim_pcms = check_2d(sim_pcms, "sim_pcms")
    sim_fingerprints = check_2d(sim_fingerprints, "sim_fingerprints")
    check_matching_rows(sim_pcms, sim_fingerprints, "sim_pcms", "sim_fingerprints")
    model = regression(
        max_terms=config.mars_max_terms,
        max_degree=config.mars_max_degree,
        penalty=config.mars_penalty,
    )
    return model.fit(sim_pcms, sim_fingerprints)


def build_s1(sim_fingerprints) -> np.ndarray:
    """S1: the raw Monte Carlo golden fingerprints."""
    return check_2d(sim_fingerprints, "sim_fingerprints").copy()


def tail_enhance(population, config: DetectorConfig, rng: SeedLike = None) -> np.ndarray:
    """KDE tail enhancement (S1 -> S2 and S4 -> S5): sample M' >> M points."""
    population = check_2d(population, "population")
    # The KDE whitener uses only the relative floor: tail enhancement should
    # inflate each direction in proportion to the population's own spread in
    # that direction.  (The *boundary* whitener applies the absolute
    # measurement-noise floor; inflating near-degenerate directions up to
    # the noise floor here would hand Trojan-sized orthogonal displacement
    # to the trusted region for free.)
    kde = AdaptiveKde(
        alpha=config.kde_alpha,
        bandwidth=config.kde_bandwidth,
        bandwidth_scale=config.kde_bandwidth_scale,
        floor_ratio=config.floor_ratio,
    ).fit(population)
    return kde.sample(config.kde_samples, rng=as_generator(rng))


def build_s3(regressions, silicon_pcms) -> np.ndarray:
    """S3: golden fingerprints predicted from measured silicon PCMs."""
    silicon_pcms = check_2d(silicon_pcms, "silicon_pcms")
    return regressions.predict(silicon_pcms)


def shift_pcm_population(
    sim_pcms,
    silicon_pcms,
    config: DetectorConfig,
    rng: SeedLike = None,
) -> np.ndarray:
    """The kernel-mean-shifted PCM population m''_p (Section 2.4).

    KMM computes importance weights that match the simulated PCM population
    to the silicon PCM distribution; importance resampling then produces an
    unweighted shifted population of ``config.kmm_resample_size`` samples.
    Because the Monte Carlo population is wider than a single-lot DUTT
    population, m''_p spreads wider than the silicon PCMs themselves.
    """
    sim_pcms = check_2d(sim_pcms, "sim_pcms")
    silicon_pcms = check_2d(silicon_pcms, "silicon_pcms")
    matcher = KernelMeanMatcher(B=config.kmm_B, eps=config.kmm_eps, gamma=config.kmm_gamma)
    matcher.fit(sim_pcms, silicon_pcms)
    return importance_resample(
        sim_pcms, matcher.weights, config.kmm_resample_size, rng=as_generator(rng)
    )


def build_s4(
    regressions,
    sim_pcms,
    silicon_pcms,
    config: DetectorConfig,
    rng: SeedLike = None,
) -> np.ndarray:
    """S4: fingerprints predicted from the KMM-shifted simulated PCMs."""
    shifted = shift_pcm_population(sim_pcms, silicon_pcms, config, rng=rng)
    return regressions.predict(shifted)
