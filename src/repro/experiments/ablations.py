"""Ablation experiments for the design choices called out in DESIGN.md.

=====  ====================================================================
id     question
=====  ====================================================================
A1     How do the adaptive-KDE tail parameter ``alpha`` and the synthetic
       volume M' affect the final boundary B5?
A2     Does KMM calibration beat naive alternatives (no shift / plain mean
       shift) when building the S4 population?
A3     How do the Monte Carlo size n and the PCM count np affect detection?
A4     How do B1 and B5 respond to the process-drift magnitude?
A5     Does the latent-gain regression matter, or would independent
       per-fingerprint MARS models do (paper-literal reading)?
A7     Does the one-class classifier choice matter (SVM vs Mahalanobis
       envelope), and does the tail-modeling family (adaptive KDE vs a
       generalized-Pareto radial tail)?
=====  ====================================================================

The alternatives are injected, not configured: A5 hands the detector the
per-output regression class, and A7 fits the baselines of
:mod:`repro.experiments.baselines` on the detector's own populations.

Each runner returns a list of result rows so the benchmark harness can both
time the sweep and print the table it regenerates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.core.boundaries import TrustedRegion
from repro.core.config import KMM_RESAMPLE_SIZE, DetectorConfig
from repro.core.datasets import build_s4, tail_enhance, train_regressions
from repro.core.metrics import evaluate_detection
from repro.core.pipeline import GoldenChipFreeDetector
from repro.experiments.baselines import EllipticEnvelope, GpdTailEnhancer
from repro.experiments.platformcfg import (
    ExperimentData,
    PlatformConfig,
    generate_experiment_data,
)
from repro.learn.latent import LatentGainMars
from repro.learn.mars import MultiOutputMars
from repro.stats.kmm import KernelMeanMatcher, KmmProblem, importance_resample
from repro.utils.rng import as_generator


@dataclass
class AblationRow:
    """One row of an ablation table."""

    label: str
    fp_count: int
    fn_count: int
    n_infested: int
    n_trojan_free: int

    def format(self) -> str:
        return (
            f"{self.label:<38s} FP {self.fp_count:>2d}/{self.n_infested:<3d} "
            f"FN {self.fn_count:>2d}/{self.n_trojan_free:<3d}"
        )


def _evaluate_region(region: TrustedRegion, data: ExperimentData, label: str) -> AblationRow:
    predictions = region.predict_trojan_free(data.dutt_fingerprints)
    metrics = evaluate_detection(predictions, data.infested)
    return AblationRow(
        label=label,
        fp_count=metrics.fp_count,
        fn_count=metrics.fn_count,
        n_infested=metrics.n_infested,
        n_trojan_free=metrics.n_trojan_free,
    )


def _fitted_detector(data: ExperimentData, config: DetectorConfig,
                     **kwargs) -> GoldenChipFreeDetector:
    """A detector through both fitting stages (``kwargs`` go to its constructor)."""
    detector = GoldenChipFreeDetector(config, **kwargs)
    detector.fit_premanufacturing(data.sim_pcms, data.sim_fingerprints)
    detector.fit_silicon(data.dutt_pcms)
    return detector


def _region(name: str, config: DetectorConfig, rng) -> TrustedRegion:
    """An unfitted default boundary that subsamples from the shared ``rng``."""
    return TrustedRegion(name, max_training_samples=config.svm_max_training_samples, seed=rng)


def _b5_region(data: ExperimentData, config: DetectorConfig, **kwargs) -> TrustedRegion:
    """The final boundary B5 of a detector fitted with ``config``."""
    return _fitted_detector(data, config, **kwargs).boundaries["B5"]


def ablate_kde(
    *,
    data: ExperimentData,
    base_config: DetectorConfig,
    alphas=(0.0, 0.25, 0.5, 1.0),
    sample_sizes=(1_000, 10_000, 100_000),
) -> List[AblationRow]:
    """A1: sweep the adaptive-KDE alpha and synthetic volume M' for B5."""
    rows = []
    for alpha in alphas:
        config = replace(base_config, kde_alpha=float(alpha))
        region = _b5_region(data, config)
        rows.append(_evaluate_region(region, data, f"B5 with alpha={alpha}"))
    for size in sample_sizes:
        config = replace(base_config, kde_samples=int(size))
        region = _b5_region(data, config)
        rows.append(_evaluate_region(region, data, f"B5 with M'={size}"))
    return rows


def ablate_kmm(*, data: ExperimentData, base_config: DetectorConfig) -> List[AblationRow]:
    """A2: KMM vs naive alternatives for the shifted PCM population.

    Variants (all feed the same regression + KDE + boundary machinery):

    * ``no shift`` — use the raw simulated PCMs (S4 == wider S1-like set);
    * ``mean shift`` — translate simulated PCMs by the mean difference;
    * ``KMM`` — the paper's kernel mean matching (the pipeline default).
    """
    rng = as_generator(base_config.seed)
    regressions = train_regressions(data.sim_pcms, data.sim_fingerprints)

    def region_from_pcms(pcms, label):
        s5 = tail_enhance(regressions.predict(pcms), base_config, rng=rng)
        region = _region(label, base_config, rng).fit(s5)
        return _evaluate_region(region, data, label)

    rows = [region_from_pcms(data.sim_pcms, "B5 via no shift")]

    delta = data.dutt_pcms.mean(axis=0) - data.sim_pcms.mean(axis=0)
    rows.append(region_from_pcms(data.sim_pcms + delta, "B5 via plain mean shift"))

    matcher = KernelMeanMatcher().fit(data.sim_pcms, data.dutt_pcms)
    shifted = importance_resample(data.sim_pcms, matcher.weights, KMM_RESAMPLE_SIZE, rng=rng)
    rows.append(region_from_pcms(shifted, "B5 via KMM (paper)"))
    return rows


def ablate_kmm_bandwidth(
    *,
    data: ExperimentData,
    base_config: DetectorConfig,
    gamma_scales=(0.25, 0.5, 1.0, 2.0, 4.0),
) -> List[AblationRow]:
    """A2b: sensitivity of the KMM calibration to the kernel bandwidth.

    Sweeps multiples of the median-heuristic gamma.  All candidates share
    one :class:`KmmProblem`, so the pooled pairwise distances are computed
    once for the whole sweep.
    """
    rng = as_generator(base_config.seed)
    regressions = train_regressions(data.sim_pcms, data.sim_fingerprints)

    problem = KmmProblem(data.sim_pcms, data.dutt_pcms)
    median = problem.median_gamma()
    matchers = problem.sweep([scale * median for scale in gamma_scales])

    rows = []
    for scale, matcher in zip(gamma_scales, matchers):
        shifted = importance_resample(data.sim_pcms, matcher.weights, KMM_RESAMPLE_SIZE, rng=rng)
        s5 = tail_enhance(regressions.predict(shifted), base_config, rng=rng)
        region = _region(f"gamma x{scale}", base_config, rng).fit(s5)
        rows.append(_evaluate_region(
            region, data,
            f"B5 with KMM gamma = {scale} x median "
            f"(ESS {matcher.effective_sample_size():.0f})",
        ))
    return rows


def ablate_design(
    *,
    base_config: DetectorConfig,
    n_monte_carlo=(25, 50, 100, 200),
    pcm_counts=(1, 2, 3),
    base_platform: Optional[PlatformConfig] = None,
) -> List[AblationRow]:
    """A3: Monte Carlo size and PCM count sweeps (new data per point)."""
    platform = base_platform or PlatformConfig()
    rows = []
    for n in n_monte_carlo:
        data = generate_experiment_data(replace(platform, n_monte_carlo=int(n)))
        region = _b5_region(data, base_config)
        rows.append(_evaluate_region(region, data, f"B5 with n_mc={n}"))
    suite_by_count = {1: "paper", 2: "extended", 3: "full"}
    for np_count in pcm_counts:
        if np_count not in suite_by_count:
            raise ValueError(f"pcm_counts must be drawn from {{1, 2, 3}}, got {np_count}")
        data = generate_experiment_data(
            replace(platform, pcm_suite_name=suite_by_count[np_count])
        )
        region = _b5_region(data, base_config)
        rows.append(_evaluate_region(region, data, f"B5 with np={np_count}"))
    return rows


def ablate_regression_mode(
    *, data: ExperimentData, base_config: DetectorConfig
) -> List[AblationRow]:
    """A5: latent-gain (default) vs independent per-output MARS regression."""
    rows = []
    for label, regression in (("latent_gain", LatentGainMars),
                              ("independent", MultiOutputMars)):
        region = _b5_region(data, base_config, regression=regression)
        rows.append(_evaluate_region(region, data, f"B5 with {label} regression"))
    return rows


def ablate_drift(
    *,
    base_config: DetectorConfig,
    drift_scales=(0.0, 0.25, 0.45, 0.7, 1.0),
    base_platform: Optional[PlatformConfig] = None,
) -> Dict[str, List[AblationRow]]:
    """A4: process-drift sweep — how B1 and B5 degrade with the shift."""
    platform = base_platform or PlatformConfig()
    out: Dict[str, List[AblationRow]] = {"B1": [], "B5": []}
    for scale in drift_scales:
        data = generate_experiment_data(replace(platform, drift_scale=float(scale)))
        detector = _fitted_detector(data, base_config)
        for name in ("B1", "B5"):
            out[name].append(
                _evaluate_region(
                    detector.boundaries[name], data, f"{name} at drift={scale}"
                )
            )
    return out


def ablate_boundary_method(
    *, data: ExperimentData, base_config: DetectorConfig
) -> List[AblationRow]:
    """A7a: one-class SVM vs Mahalanobis envelope as the learner of B5.

    Both learners are fitted on the same S5 population, that of one default
    detector, with the same outlier budget (the envelope's contamination is
    the SVM's ν), so the rows differ only by the classifier.
    """
    detector = _fitted_detector(data, base_config)
    b5 = detector.boundaries["B5"]
    envelope = TrustedRegion(
        "B5", learner=EllipticEnvelope(contamination=b5.svm.nu)
    ).fit(detector.datasets["S5"])
    return [
        _evaluate_region(b5, data, "B5 with ocsvm boundary"),
        _evaluate_region(envelope, data, "B5 with mahalanobis boundary"),
    ]


def ablate_tail_enhancer(
    *, data: ExperimentData, base_config: DetectorConfig
) -> List[AblationRow]:
    """A7b: adaptive-KDE vs generalized-Pareto tail enhancement for S5.

    Both enhancers are fed the same S4 population; the resulting synthetic
    sets train identical boundary learners.
    """
    rng = as_generator(base_config.seed)
    regressions = train_regressions(data.sim_pcms, data.sim_fingerprints)
    s4 = build_s4(regressions, data.sim_pcms, data.dutt_pcms, rng=rng)

    def region_from(s5, label):
        region = _region(label, base_config, rng).fit(s5)
        return _evaluate_region(region, data, label)

    kde_s5 = tail_enhance(s4, base_config, rng=rng)
    rows = [region_from(kde_s5, "B5 via adaptive KDE (paper)")]
    gpd_s5 = GpdTailEnhancer().fit(s4).sample(base_config.kde_samples, rng=rng)
    rows.append(region_from(gpd_s5, "B5 via GPD radial tail"))
    return rows


def format_rows(rows: List[AblationRow], title: str) -> str:
    """Render an ablation table."""
    lines = [title, "-" * len(title)]
    lines.extend(row.format() for row in rows)
    return "\n".join(lines)
