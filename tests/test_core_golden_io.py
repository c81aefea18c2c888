"""Golden-chip reference detector and persistence helpers."""

import numpy as np
import pytest

from repro.core.golden import GoldenReferenceDetector
from repro.core.io import load_experiment_data, save_experiment_data
from tests.conftest import small_detector_config


class TestGoldenReference:
    def test_unfitted_raises(self, experiment_data):
        with pytest.raises(RuntimeError):
            GoldenReferenceDetector().classify(experiment_data.dutt_fingerprints)

    def test_accepts_golden_population(self, experiment_data):
        golden = experiment_data.trojan_free_fingerprints()
        detector = GoldenReferenceDetector(small_detector_config()).fit(golden)
        assert detector.classify(golden).mean() > 0.6

    def test_catches_trojans(self, experiment_data):
        golden = experiment_data.trojan_free_fingerprints()
        detector = GoldenReferenceDetector(small_detector_config()).fit(golden)
        metrics = detector.evaluate(
            experiment_data.dutt_fingerprints, experiment_data.infested
        )
        assert metrics.fp_count == 0

    def test_region_accessor(self, experiment_data):
        detector = GoldenReferenceDetector(small_detector_config()).fit(
            experiment_data.trojan_free_fingerprints()
        )
        assert detector.region.n_training_samples_ == 12


class TestExperimentDataIo:
    def test_round_trip(self, experiment_data, tmp_path):
        path = save_experiment_data(experiment_data, tmp_path / "run.npz")
        loaded = load_experiment_data(path)
        np.testing.assert_array_equal(loaded.sim_pcms, experiment_data.sim_pcms)
        np.testing.assert_array_equal(
            loaded.dutt_fingerprints, experiment_data.dutt_fingerprints
        )
        np.testing.assert_array_equal(loaded.infested, experiment_data.infested)
        assert loaded.trojan_names == experiment_data.trojan_names
        assert loaded.campaign is None

    def test_suffix_added_when_missing(self, experiment_data, tmp_path):
        path = save_experiment_data(experiment_data, tmp_path / "run")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_missing_arrays_rejected(self, tmp_path):
        bad = tmp_path / "bad.npz"
        np.savez(bad, sim_pcms=np.zeros((2, 1)))
        with pytest.raises(ValueError, match="missing arrays"):
            load_experiment_data(bad)
