"""The golden chip-free detector: the paper's three-stage pipeline.

Stage 1 — **pre-manufacturing** (Section 2.1): Monte Carlo simulate golden
devices with the trusted Spice deck; learn the MARS regressions
``g_j : m_p -> m_j``; train boundary B1 on the raw simulated fingerprints
(S1) and B2 on their KDE tail-enhanced population (S2).

Stage 2 — **silicon measurement** (Section 2.2): measure the PCMs of the
devices under Trojan test; predict golden fingerprints from them (S3 -> B3);
calibrate the simulated PCM population to the silicon operating point with
kernel mean matching and predict from the shifted population (S4 -> B4);
tail-enhance that population with adaptive KDE (S5 -> B5).

Stage 3 — **Trojan test** (Section 2.3): classify each DUTT fingerprint
against a chosen boundary; compute FP/FN.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.core.boundaries import TrustedRegion, trojan_free
from repro.core.config import DetectorConfig, drop_retired_keys
from repro.core.datasets import (
    DatasetBundle,
    build_s1,
    build_s3,
    build_s4,
    tail_enhance,
    train_regressions,
)
from repro.core.metrics import DetectionMetrics, evaluate_detection
from repro.learn.latent import LatentGainMars
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.utils.rng import spawn_children
from repro.utils.validation import check_2d

BOUNDARY_NAMES = ("B1", "B2", "B3", "B4", "B5")


class GoldenChipFreeDetector:
    """Learns trusted regions B1..B5 without golden chips.

    Typical use::

        detector = GoldenChipFreeDetector(DetectorConfig())
        detector.fit_premanufacturing(sim_pcms, sim_fingerprints)
        detector.fit_silicon(dutt_pcms)
        verdicts = detector.classify(dutt_fingerprints)          # B5
        table = detector.evaluate(dutt_fingerprints, infested)   # all B's

    ``regression`` is the multi-output regression class the pre-manufacturing
    stage fits (see :func:`~repro.core.datasets.train_regressions`); the
    latent-gain MARS is the production model, and ablation A5 injects the
    paper-literal per-output one.
    """

    def __init__(self, config: Optional[DetectorConfig] = None,
                 regression=LatentGainMars):
        self.config = config or DetectorConfig()
        self.regression = regression
        self.datasets = DatasetBundle()
        self.boundaries: Dict[str, TrustedRegion] = {}
        self.regressions_ = None
        self._sim_pcms: Optional[np.ndarray] = None
        self.n_pcm_features_: Optional[int] = None
        self.n_fingerprint_features_: Optional[int] = None
        # Independent child generators per stochastic step, all derived from
        # the master seed: [S2 KDE, KMM resample, S5 KDE, B1, B2, B3, B4, B5].
        # SeedSequence spawning is prefix-stable, so the first three streams
        # match the historical 4-child layout; each boundary owns its own
        # stream, so its fit does not depend on which other boundaries are
        # fitted before it.
        self._rngs = spawn_children(self.config.seed, 3 + len(BOUNDARY_NAMES))

    # ------------------------------------------------------------------
    # stage 1: pre-manufacturing
    # ------------------------------------------------------------------

    def fit_premanufacturing(self, sim_pcms, sim_fingerprints) -> "GoldenChipFreeDetector":
        """Learn regressions and the simulation-only boundaries B1/B2."""
        sim_pcms = check_2d(sim_pcms, "sim_pcms")
        sim_fingerprints = check_2d(sim_fingerprints, "sim_fingerprints")
        with span("pipeline.fit_premanufacturing", n_sim=int(sim_pcms.shape[0])):
            self._sim_pcms = sim_pcms
            self.n_pcm_features_ = int(sim_pcms.shape[1])
            self.n_fingerprint_features_ = int(sim_fingerprints.shape[1])
            with span("regression.train", model=self.regression.__name__):
                self.regressions_ = train_regressions(
                    sim_pcms, sim_fingerprints, self.regression
                )

            self.datasets.sets["S1"] = build_s1(sim_fingerprints)
            with span("dataset.build", dataset="S2"):
                self.datasets.sets["S2"] = tail_enhance(
                    self.datasets["S1"], self.config, rng=self._rngs[0]
                )
            self._fit_boundaries({"B1": "S1", "B2": "S2"})
        return self

    # ------------------------------------------------------------------
    # stage 2: silicon measurement
    # ------------------------------------------------------------------

    def fit_silicon(self, dutt_pcms) -> "GoldenChipFreeDetector":
        """Anchor the trusted region in silicon via the DUTTs' PCMs."""
        if self.regressions_ is None:
            raise RuntimeError("fit_premanufacturing must run before fit_silicon")
        if self._sim_pcms is None:
            raise RuntimeError(
                "this detector was restored from exported state and is "
                "inference-only; refit from raw data to run fit_silicon"
            )
        dutt_pcms = check_2d(dutt_pcms, "dutt_pcms")
        if dutt_pcms.shape[1] != self._sim_pcms.shape[1]:
            raise ValueError(
                f"DUTT PCMs have {dutt_pcms.shape[1]} features, "
                f"simulation had {self._sim_pcms.shape[1]}"
            )

        with span("pipeline.fit_silicon", n_dutt=int(dutt_pcms.shape[0])):
            with span("dataset.build", dataset="S3"):
                self.datasets.sets["S3"] = build_s3(self.regressions_, dutt_pcms)
            with span("dataset.build", dataset="S4"):
                self.datasets.sets["S4"] = build_s4(
                    self.regressions_, self._sim_pcms, dutt_pcms, rng=self._rngs[1]
                )
            with span("dataset.build", dataset="S5"):
                self.datasets.sets["S5"] = tail_enhance(
                    self.datasets["S4"], self.config, rng=self._rngs[2]
                )
            self._fit_boundaries({"B3": "S3", "B4": "S4", "B5": "S5"})
        return self

    def _new_region(self, name: str) -> TrustedRegion:
        return TrustedRegion(
            name, max_training_samples=self.config.svm_max_training_samples,
            seed=self._rngs[3 + BOUNDARY_NAMES.index(name)],
        )

    def _fit_boundaries(self, mapping: Dict[str, str]) -> None:
        """Fit the boundaries of ``mapping`` one after another, in order.

        Each boundary consumes only its own child generator, so its fit
        does not depend on which other boundaries are fitted before it.
        """
        regions = {name: self._new_region(name) for name in mapping}
        with span("pipeline.fit_boundaries", boundaries=",".join(mapping)):
            for name, dataset in mapping.items():
                regions[name].fit(self.datasets[dataset])
        self.boundaries.update(regions)

    # ------------------------------------------------------------------
    # stage 3: trojan test
    # ------------------------------------------------------------------

    def _validate_fingerprints(self, fingerprints) -> np.ndarray:
        """Shared scoring-entry validator (same contract as the fit entries).

        Raw user arrays reach ``classify``/``evaluate`` directly in the
        serving flow, so they get the identical shape/dtype/finiteness
        coercion the ``fit_*`` entries apply, plus a feature-width check
        against the training population — degenerate inputs fail loudly
        instead of silently mis-classifying.
        """
        fingerprints = check_2d(fingerprints, "fingerprints")
        expected = self.n_fingerprint_features_
        if expected is not None and fingerprints.shape[1] != expected:
            raise ValueError(
                f"fingerprints have {fingerprints.shape[1]} features, "
                f"detector was trained on {expected}"
            )
        return fingerprints

    def _resolve_boundaries(self, boundaries) -> Tuple[str, ...]:
        """Normalize a boundary subset request against the trained set."""
        if boundaries is None:
            names = tuple(n for n in BOUNDARY_NAMES if n in self.boundaries)
            if not names:
                raise RuntimeError("no boundaries trained yet")
            return names
        if isinstance(boundaries, str):
            boundaries = (boundaries,)
        names = tuple(boundaries)
        if not names:
            raise ValueError("boundary subset is empty")
        for name in names:
            if name not in self.boundaries:
                raise KeyError(
                    f"boundary {name!r} not trained; available: "
                    f"{sorted(self.boundaries)}"
                )
        return names

    def classify(self, fingerprints, boundary: str = "B5") -> np.ndarray:
        """Classify DUTT fingerprints; True = Trojan-free (inside region)."""
        (verdicts,) = self.classify_batch(fingerprints, boundary).values()
        return verdicts

    def decision_scores_batch(
        self, fingerprints, boundaries: Optional[Iterable[str]] = None
    ) -> Dict[str, np.ndarray]:
        """Decision scores of one device batch against several boundaries.

        The batch is validated **once** and every requested boundary scores
        the same float64 block (each reusing its precomputed support-vector
        norms), so per-boundary overhead amortizes across the subset.
        Each boundary's scores are bit-identical to its own
        :meth:`~repro.core.boundaries.TrustedRegion.decision_scores`.
        """
        names = self._resolve_boundaries(boundaries)
        fingerprints = self._validate_fingerprints(fingerprints)
        return {
            name: self.boundaries[name].decision_scores(fingerprints, validate=False)
            for name in names
        }

    def classify_batch(
        self, fingerprints, boundaries: Optional[Iterable[str]] = None
    ) -> Dict[str, np.ndarray]:
        """Per-boundary Trojan-free verdicts for one validated device batch."""
        scores = self.decision_scores_batch(fingerprints, boundaries=boundaries)
        return {name: trojan_free(values) for name, values in scores.items()}

    def evaluate(self, fingerprints, infested) -> Dict[str, DetectionMetrics]:
        """FP/FN of every trained boundary over a labelled DUTT population."""
        fingerprints = self._validate_fingerprints(fingerprints)
        infested = np.asarray(infested)
        if infested.ndim != 1 or infested.shape[0] != fingerprints.shape[0]:
            raise ValueError(
                f"infested must be 1-D with one label per device, got shape "
                f"{infested.shape} for {fingerprints.shape[0]} devices"
            )
        results = {}
        with span("pipeline.evaluate", n_devices=int(fingerprints.shape[0])):
            verdicts = self.classify_batch(fingerprints)
            for name, predictions in verdicts.items():
                results[name] = evaluate_detection(predictions, infested)
                obs_metrics.gauge(f"detect.{name}.fp_count").set(
                    results[name].fp_count
                )
                obs_metrics.gauge(f"detect.{name}.fn_count").set(
                    results[name].fn_count
                )
        return results

    # ------------------------------------------------------------------
    # export / restore (the serving flow's train-once artifact)
    # ------------------------------------------------------------------

    def to_state(self) -> dict:
        """Codec state of the fitted detector (see :mod:`repro.cache.codec`).

        Captures everything inference needs — config, every trained
        boundary, the PCM regressions and the feature widths — and nothing
        training-only (datasets, RNG streams, the simulated PCM population).
        A restored detector classifies bit-identically but is
        **inference-only**: refitting it would need the dropped streams.
        """
        if not self.boundaries:
            raise RuntimeError("cannot export an unfitted detector")
        return {
            "config": dataclasses.asdict(self.config),
            "boundaries": {name: region
                           for name, region in sorted(self.boundaries.items())},
            "regressions": self.regressions_,
            "n_pcm_features": self.n_pcm_features_,
            "n_fingerprint_features": self.n_fingerprint_features_,
        }

    @classmethod
    def from_state(cls, state: dict) -> "GoldenChipFreeDetector":
        """Rebuild an inference-ready detector from :meth:`to_state` output."""
        detector = cls(DetectorConfig(**drop_retired_keys(state["config"])))
        detector.boundaries = dict(state["boundaries"])
        detector.regressions_ = state.get("regressions")
        if detector.regressions_ is not None:
            detector.regression = type(detector.regressions_)
        width = state.get("n_pcm_features")
        detector.n_pcm_features_ = None if width is None else int(width)
        width = state.get("n_fingerprint_features")
        detector.n_fingerprint_features_ = None if width is None else int(width)
        return detector

    def export_bundle(self, path, **manifest_extra):
        """Export the fitted detector as a ``repro-bundle-v1`` file.

        Convenience hook over :func:`repro.serve.bundle.export_bundle`;
        returns the written :class:`~repro.serve.bundle.BundleInfo`.
        """
        from repro.serve.bundle import export_bundle

        return export_bundle(self, path, **manifest_extra)
