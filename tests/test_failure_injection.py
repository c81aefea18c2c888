"""Failure-injection tests: degenerate inputs must fail loudly or degrade
gracefully, never silently mis-classify."""

import numpy as np
import pytest

from repro.core.boundaries import TrustedRegion
from repro.core.config import DetectorConfig
from repro.core.pipeline import GoldenChipFreeDetector
from repro.learn.mars import MarsRegression
from repro.learn.ocsvm import BOUNDARY_TOL, OneClassSvm
from repro.stats.kde import AdaptiveKde
from repro.stats.kmm import KernelMeanMatcher, importance_resample
from repro.stats.preprocessing import Whitener
from tests.conftest import small_detector_config


class TestDegenerateInputs:
    def test_nan_fingerprints_rejected_at_every_entry(self, experiment_data):
        bad = experiment_data.sim_fingerprints.copy()
        bad[0, 0] = np.nan
        detector = GoldenChipFreeDetector(small_detector_config())
        with pytest.raises(ValueError, match="non-finite"):
            detector.fit_premanufacturing(experiment_data.sim_pcms, bad)

    def test_constant_pcm_population_still_runs(self, experiment_data):
        """Zero-variance silicon PCMs: the pipeline degrades, not crashes."""
        detector = GoldenChipFreeDetector(small_detector_config())
        detector.fit_premanufacturing(
            experiment_data.sim_pcms, experiment_data.sim_fingerprints
        )
        constant = np.full_like(experiment_data.dutt_pcms,
                                experiment_data.dutt_pcms.mean())
        detector.fit_silicon(constant)
        verdicts = detector.classify(experiment_data.dutt_fingerprints)
        assert verdicts.shape == (experiment_data.n_devices,)

    def test_single_point_boundary_population(self):
        region = TrustedRegion(nu=0.5, noise_floor_rel=0.0, seed=0).fit(
            np.full((3, 4), 2.0)
        )
        assert region.predict_trojan_free(np.full((1, 4), 2.0))[0]
        assert not region.predict_trojan_free(np.full((1, 4), 50.0))[0]

    def test_whitener_on_constant_data(self):
        whitener = Whitener().fit(np.full((5, 3), 1.0))
        out = whitener.transform(np.full((2, 3), 1.0))
        np.testing.assert_allclose(out, 0.0)

    def test_mars_on_constant_target(self):
        x = np.random.default_rng(0).uniform(0, 1, size=(50, 1))
        model = MarsRegression().fit(x, np.full(50, 7.0))
        np.testing.assert_allclose(model.predict(x), 7.0, atol=1e-9)

    def test_mars_on_constant_input(self):
        x = np.full((40, 1), 3.0)
        y = np.random.default_rng(0).standard_normal(40)
        model = MarsRegression().fit(x, y)
        # No usable knots: the model collapses to the mean.
        assert len(model.basis_) == 1

    def test_kde_on_duplicated_points(self):
        data = np.tile([[1.0, 2.0]], (30, 1))
        kde = AdaptiveKde().fit(data)
        samples = kde.sample(100, rng=0)
        assert samples.shape == (100, 2)
        assert np.isfinite(samples).all()

    def test_ocsvm_on_duplicated_points(self):
        svm = OneClassSvm(nu=0.5, seed=0).fit(np.ones((20, 2)))
        # Every kernel term is exp(0) = 1, so the score of the training point
        # is 0 up to rounding: inside within the dual's slack.
        assert svm.decision_function(np.ones((1, 2)))[0] >= -BOUNDARY_TOL

    def test_kmm_with_single_test_sample(self, experiment_data):
        matcher = KernelMeanMatcher(B=10.0).fit(
            experiment_data.sim_pcms, experiment_data.dutt_pcms[:1]
        )
        resampled = importance_resample(
            experiment_data.sim_pcms, matcher.weights, 20, rng=0
        )
        assert np.isfinite(resampled).all()


class TestScoringEntryValidation:
    """classify/evaluate run the same loud input contract as the fit entries."""

    def test_nan_fingerprints_rejected_at_classify(self, fitted_detector,
                                                   experiment_data):
        bad = experiment_data.dutt_fingerprints.copy()
        bad[2, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fitted_detector.classify(bad)

    def test_inf_fingerprints_rejected_at_evaluate(self, fitted_detector,
                                                   experiment_data):
        bad = experiment_data.dutt_fingerprints.copy()
        bad[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            fitted_detector.evaluate(bad, experiment_data.infested)

    def test_wrong_feature_width_rejected(self, fitted_detector,
                                          experiment_data):
        narrow = experiment_data.dutt_fingerprints[:, :-1]
        with pytest.raises(ValueError, match="trained on"):
            fitted_detector.classify(narrow)
        with pytest.raises(ValueError, match="trained on"):
            fitted_detector.evaluate(narrow, experiment_data.infested)

    def test_1d_fingerprints_rejected(self, fitted_detector,
                                      experiment_data):
        with pytest.raises(ValueError, match="2-D"):
            fitted_detector.classify(experiment_data.dutt_fingerprints[0])

    def test_mismatched_infested_length_rejected(self, fitted_detector,
                                                 experiment_data):
        with pytest.raises(ValueError, match="one label per device"):
            fitted_detector.evaluate(
                experiment_data.dutt_fingerprints,
                experiment_data.infested[:-1],
            )

    def test_untrained_boundary_rejected(self, fitted_detector,
                                         experiment_data):
        with pytest.raises(KeyError, match="B7"):
            fitted_detector.classify(experiment_data.dutt_fingerprints,
                                     boundary="B7")

    def test_empty_boundary_subset_rejected(self, fitted_detector,
                                            experiment_data):
        with pytest.raises(ValueError, match="empty"):
            fitted_detector.decision_scores_batch(
                experiment_data.dutt_fingerprints, boundaries=[])

    def test_batch_entries_share_the_contract(self, fitted_detector,
                                              experiment_data):
        bad = experiment_data.dutt_fingerprints.copy()
        bad[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fitted_detector.decision_scores_batch(bad)
        with pytest.raises(ValueError, match="non-finite"):
            fitted_detector.classify_batch(bad)


class TestHostileMeasurements:
    def test_wildly_corrupted_fingerprints_are_flagged(self, fitted_detector,
                                                       experiment_data):
        """A tester fault (all-zero power readings) must never pass."""
        zeros = np.full((5, experiment_data.dutt_fingerprints.shape[1]), 1e-9)
        assert not fitted_detector.classify(zeros).any()

    def test_saturated_fingerprints_are_flagged(self, fitted_detector,
                                                experiment_data):
        huge = experiment_data.dutt_fingerprints[:5] * 100.0
        assert not fitted_detector.classify(huge).any()

    def test_negative_power_readings_are_flagged(self, fitted_detector,
                                                 experiment_data):
        negative = -np.abs(experiment_data.dutt_fingerprints[:5])
        assert not fitted_detector.classify(negative).any()

    def test_config_kde_alpha_extremes_still_sound(self, experiment_data):
        for alpha in (0.0, 1.0):
            detector = GoldenChipFreeDetector(small_detector_config(kde_alpha=alpha))
            detector.fit_premanufacturing(
                experiment_data.sim_pcms, experiment_data.sim_fingerprints
            )
            detector.fit_silicon(experiment_data.dutt_pcms)
            results = detector.evaluate(
                experiment_data.dutt_fingerprints, experiment_data.infested
            )
            assert all(m.fp_count == 0 for m in results.values())
