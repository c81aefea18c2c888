"""TrustedRegion: whitened-space one-class boundary."""

import numpy as np
import pytest

from repro.core.boundaries import TrustedRegion


@pytest.fixture()
def ray_population():
    """A strongly correlated population, like fingerprint block powers."""
    rng = np.random.default_rng(0)
    gains = 1.0 + 0.05 * rng.standard_normal(300)
    pattern = np.array([10.0, 12.0, 9.0, 11.0])
    noise = 0.02 * rng.standard_normal((300, 4))
    return gains[:, None] * pattern[None, :] + noise


def test_unfitted_raises():
    with pytest.raises(RuntimeError):
        TrustedRegion().predict_trojan_free(np.zeros((1, 4)))


def test_negative_noise_floor_rejected():
    with pytest.raises(ValueError):
        TrustedRegion(noise_floor_rel=-0.1)


def test_training_population_mostly_inside(ray_population):
    region = TrustedRegion(nu=0.1, noise_floor_rel=0.003, seed=0).fit(ray_population)
    inside = region.predict_trojan_free(ray_population)
    assert inside.mean() > 0.8


def test_gain_outlier_rejected(ray_population):
    region = TrustedRegion(nu=0.05, noise_floor_rel=0.003, seed=0).fit(ray_population)
    outlier = ray_population.mean(axis=0) * 1.5
    assert not region.predict_trojan_free(outlier[None, :])[0]


def test_off_ray_displacement_rejected(ray_population):
    """A Trojan-like pattern distortion is caught even at constant total power."""
    region = TrustedRegion(nu=0.05, noise_floor_rel=0.003, seed=0).fit(ray_population)
    center = ray_population.mean(axis=0)
    # Redistribute power between blocks without changing the total.
    distorted = center + np.array([+0.8, -0.8, +0.8, -0.8])
    assert region.predict_trojan_free(center[None, :])[0]
    assert not region.predict_trojan_free(distorted[None, :])[0]


def test_noise_floor_tolerates_measurement_noise(ray_population):
    rng = np.random.default_rng(1)
    tight = TrustedRegion(nu=0.05, noise_floor_rel=1e-6, seed=0).fit(ray_population)
    tolerant = TrustedRegion(nu=0.05, noise_floor_rel=0.01, seed=0).fit(ray_population)
    noisy = ray_population[:50] * (1.0 + 0.005 * rng.standard_normal((50, 4)))
    assert tolerant.predict_trojan_free(noisy).mean() >= tight.predict_trojan_free(noisy).mean()


def test_decision_scores_sign_matches_prediction(ray_population):
    region = TrustedRegion(nu=0.1, seed=0).fit(ray_population)
    points = np.vstack([ray_population[:10], ray_population[:5] * 2.0])
    scores = region.decision_scores(points)
    np.testing.assert_array_equal(scores >= 0, region.predict_trojan_free(points))


def test_fit_records_training_size(ray_population):
    region = TrustedRegion(seed=0).fit(ray_population)
    assert region.n_training_samples_ == 300


def test_accessors_exposed(ray_population):
    region = TrustedRegion(seed=0).fit(ray_population)
    assert region.whitener.scales_ is not None
    assert region.svm.rho_ is not None


def test_injected_learner_is_fitted_in_whitened_space(ray_population):
    class MeanDistance:
        def fit(self, data):
            self.radius_ = float(np.linalg.norm(data, axis=1).max())
            return self

        def decision_function(self, points):
            return self.radius_ - np.linalg.norm(points, axis=1)

    learner = MeanDistance()
    region = TrustedRegion(learner=learner).fit(ray_population)
    assert region.svm is learner
    expected = learner.decision_function(region.whitener.transform(ray_population))
    np.testing.assert_array_equal(region.decision_scores(ray_population), expected)
    assert region.predict_trojan_free(ray_population).all()
