"""GoldenChipFreeDetector: staging, classification, evaluation."""

import numpy as np
import pytest

from repro.core.pipeline import GoldenChipFreeDetector
from tests.conftest import small_detector_config


class TestStaging:
    def test_silicon_before_premanufacturing_raises(self, experiment_data):
        detector = GoldenChipFreeDetector(small_detector_config())
        with pytest.raises(RuntimeError, match="fit_premanufacturing"):
            detector.fit_silicon(experiment_data.dutt_pcms)

    def test_premanufacturing_builds_b1_b2(self, experiment_data):
        detector = GoldenChipFreeDetector(small_detector_config())
        detector.fit_premanufacturing(
            experiment_data.sim_pcms, experiment_data.sim_fingerprints
        )
        assert set(detector.boundaries) == {"B1", "B2"}
        assert detector.datasets.names() == ["S1", "S2"]

    def test_silicon_builds_b3_b4_b5(self, fitted_detector):
        assert set(fitted_detector.boundaries) == {"B1", "B2", "B3", "B4", "B5"}
        datasets = fitted_detector.datasets
        assert datasets.names() == ["S1", "S2", "S3", "S4", "S5"]
        assert datasets["S2"].shape[0] == fitted_detector.config.kde_samples
        assert datasets["S5"].shape[0] == fitted_detector.config.kde_samples

    def test_pcm_dimension_mismatch_rejected(self, experiment_data):
        detector = GoldenChipFreeDetector(small_detector_config())
        detector.fit_premanufacturing(
            experiment_data.sim_pcms, experiment_data.sim_fingerprints
        )
        with pytest.raises(ValueError, match="features"):
            detector.fit_silicon(np.zeros((10, 3)))


class TestClassification:
    def test_unknown_boundary_raises(self, fitted_detector, experiment_data):
        with pytest.raises(KeyError, match="B9"):
            fitted_detector.classify(experiment_data.dutt_fingerprints, boundary="B9")

    def test_classify_returns_bool_per_device(self, fitted_detector, experiment_data):
        verdicts = fitted_detector.classify(experiment_data.dutt_fingerprints)
        assert verdicts.shape == (experiment_data.n_devices,)
        assert verdicts.dtype == bool

    def test_evaluate_covers_all_boundaries(self, fitted_detector, experiment_data):
        results = fitted_detector.evaluate(
            experiment_data.dutt_fingerprints, experiment_data.infested
        )
        assert set(results) == {"B1", "B2", "B3", "B4", "B5"}

    def test_no_trojan_escapes_any_boundary(self, fitted_detector, experiment_data):
        results = fitted_detector.evaluate(
            experiment_data.dutt_fingerprints, experiment_data.infested
        )
        assert all(metrics.fp_count == 0 for metrics in results.values())

    def test_silicon_anchoring_beats_simulation_only(self, fitted_detector, experiment_data):
        results = fitted_detector.evaluate(
            experiment_data.dutt_fingerprints, experiment_data.infested
        )
        best_anchored = min(results[b].fn_count for b in ("B3", "B4", "B5"))
        assert best_anchored < results["B1"].fn_count


class TestDeterminism:
    def test_same_seed_same_boundaries(self, experiment_data):
        def build():
            detector = GoldenChipFreeDetector(small_detector_config(seed=77))
            detector.fit_premanufacturing(
                experiment_data.sim_pcms, experiment_data.sim_fingerprints
            )
            detector.fit_silicon(experiment_data.dutt_pcms)
            return detector.classify(experiment_data.dutt_fingerprints)

        np.testing.assert_array_equal(build(), build())

    def test_different_seed_changes_synthetic_sets(self, experiment_data):
        def s5(seed):
            detector = GoldenChipFreeDetector(small_detector_config(seed=seed))
            detector.fit_premanufacturing(
                experiment_data.sim_pcms, experiment_data.sim_fingerprints
            )
            detector.fit_silicon(experiment_data.dutt_pcms)
            return detector.datasets["S5"]

        assert not np.array_equal(s5(1), s5(2))
