"""Dataset builders S1..S5."""

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.datasets import (
    DatasetBundle,
    build_s1,
    build_s3,
    build_s4,
    shift_pcm_population,
    tail_enhance,
    train_regressions,
)
from repro.learn.mars import MultiOutputMars
from tests.conftest import small_detector_config


@pytest.fixture(scope="module")
def config():
    return small_detector_config()


class TestBundle:
    def test_missing_key_raises(self):
        with pytest.raises(KeyError, match="not built"):
            DatasetBundle()["S3"]

    def test_names_in_pipeline_order(self):
        bundle = DatasetBundle()
        bundle.sets["S5"] = np.zeros((1, 2))
        bundle.sets["S1"] = np.zeros((1, 2))
        assert bundle.names() == ["S1", "S5"]
        assert "S1" in bundle and "S2" not in bundle


class TestBuilders:
    def test_s1_is_a_copy(self, experiment_data):
        s1 = build_s1(experiment_data.sim_fingerprints)
        s1[0, 0] = -1.0
        assert experiment_data.sim_fingerprints[0, 0] != -1.0

    def test_tail_enhance_size_and_support(self, experiment_data, config):
        s2 = tail_enhance(experiment_data.sim_fingerprints, config, rng=0)
        assert s2.shape == (config.kde_samples, experiment_data.sim_fingerprints.shape[1])
        # The enhanced set must cover (and exceed) the original spread.
        assert s2.std(axis=0).min() >= 0.8 * experiment_data.sim_fingerprints.std(axis=0).min()

    def test_regressions_predict_reasonably(self, experiment_data, config):
        model = train_regressions(
            experiment_data.sim_pcms, experiment_data.sim_fingerprints, config
        )
        pred = model.predict(experiment_data.sim_pcms)
        residual = experiment_data.sim_fingerprints - pred
        r2 = 1.0 - residual.var(axis=0) / experiment_data.sim_fingerprints.var(axis=0)
        assert r2.mean() > 0.5

    def test_independent_mode_trains_per_output(self, experiment_data, config):
        model = train_regressions(
            experiment_data.sim_pcms,
            experiment_data.sim_fingerprints,
            config,
            regression=MultiOutputMars,
        )
        assert isinstance(model, MultiOutputMars)
        assert len(model.models_) == experiment_data.sim_fingerprints.shape[1]
        pred = model.predict(experiment_data.sim_pcms)
        assert pred.shape == experiment_data.sim_fingerprints.shape

    def test_s3_shape(self, experiment_data, config):
        model = train_regressions(
            experiment_data.sim_pcms, experiment_data.sim_fingerprints, config
        )
        s3 = build_s3(model, experiment_data.dutt_pcms)
        assert s3.shape == (
            experiment_data.dutt_pcms.shape[0],
            experiment_data.sim_fingerprints.shape[1],
        )

    def test_shifted_pcms_move_toward_silicon(self, experiment_data, config):
        shifted = shift_pcm_population(
            experiment_data.sim_pcms, experiment_data.dutt_pcms, config, rng=0
        )
        assert shifted.shape == (config.kmm_resample_size, experiment_data.sim_pcms.shape[1])
        sim_mean = experiment_data.sim_pcms.mean()
        silicon_mean = experiment_data.dutt_pcms.mean()
        assert abs(shifted.mean() - silicon_mean) < abs(sim_mean - silicon_mean)

    def test_s4_values_lie_on_regression_image(self, experiment_data, config):
        model = train_regressions(
            experiment_data.sim_pcms, experiment_data.sim_fingerprints, config
        )
        s4 = build_s4(
            model, experiment_data.sim_pcms, experiment_data.dutt_pcms, config, rng=0
        )
        # Every S4 row must equal the prediction of SOME simulated PCM.
        all_predictions = model.predict(experiment_data.sim_pcms)
        for row in s4[:10]:
            distances = np.abs(all_predictions - row).sum(axis=1)
            assert distances.min() < 1e-9

    def test_build_all_produces_all_five(self, experiment_data, config):
        # The builders chained as the pipeline chains them, stage by stage.
        model = train_regressions(
            experiment_data.sim_pcms, experiment_data.sim_fingerprints, config
        )
        bundle = DatasetBundle()
        bundle.sets["S1"] = build_s1(experiment_data.sim_fingerprints)
        bundle.sets["S2"] = tail_enhance(bundle.sets["S1"], config, rng=0)
        bundle.sets["S3"] = build_s3(model, experiment_data.dutt_pcms)
        bundle.sets["S4"] = build_s4(
            model, experiment_data.sim_pcms, experiment_data.dutt_pcms, config, rng=0
        )
        bundle.sets["S5"] = tail_enhance(bundle.sets["S4"], config, rng=0)
        assert bundle.names() == ["S1", "S2", "S3", "S4", "S5"]
        assert bundle["S2"].shape[0] == config.kde_samples
        assert bundle["S5"].shape[0] == config.kde_samples
        widths = {bundle[name].shape[1] for name in bundle.names()}
        assert widths == {experiment_data.sim_fingerprints.shape[1]}

    def test_tail_enhance_is_seeded(self, experiment_data, config):
        a = tail_enhance(experiment_data.sim_fingerprints, config, rng=3)
        b = tail_enhance(experiment_data.sim_fingerprints, config, rng=3)
        np.testing.assert_array_equal(a, b)
