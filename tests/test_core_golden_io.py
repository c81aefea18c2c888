"""Golden-chip reference detector and persistence helpers."""

import dataclasses
import json

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.golden import GoldenReferenceDetector
from repro.core.io import (
    load_detector_config,
    load_experiment_data,
    save_detector_config,
    save_experiment_data,
)
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


class TestConfigIo:
    def test_round_trip(self, tmp_path):
        config = DetectorConfig(kde_samples=1234, svm_nu=0.11, seed=99)
        path = save_detector_config(config, tmp_path / "config.json")
        assert load_detector_config(path) == config

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"kde_samples": 10, "flux_capacitor": true}')
        with pytest.raises(ValueError, match="unknown configuration keys"):
            load_detector_config(path)

    def test_retired_engine_key_dropped(self, tmp_path):
        # Configs saved before the population-engine switch was retired
        # carry "engine"; that key alone is dropped, others still fail.
        config = DetectorConfig(kde_samples=1234, seed=99)
        raw = {**dataclasses.asdict(config), "engine": "batched"}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert load_detector_config(path) == config
        path.write_text(json.dumps({**raw, "flux_capacitor": True}))
        with pytest.raises(ValueError, match=r"\['flux_capacitor'\]"):
            load_detector_config(path)
