"""Generalized Pareto tail enhancement."""

import numpy as np
import pytest

from repro.experiments.baselines import GpdTailEnhancer


@pytest.fixture()
def gaussian_data():
    return np.random.default_rng(0).standard_normal((400, 3))


class TestValidation:
    def test_threshold_quantile_range(self):
        with pytest.raises(ValueError):
            GpdTailEnhancer(threshold_quantile=0.3)
        with pytest.raises(ValueError):
            GpdTailEnhancer(threshold_quantile=0.99)

    def test_shape_cap_positive(self):
        with pytest.raises(ValueError):
            GpdTailEnhancer(shape_cap=0.0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            GpdTailEnhancer().sample(10)


class TestFit:
    def test_threshold_at_requested_quantile(self, gaussian_data):
        enhancer = GpdTailEnhancer(threshold_quantile=0.8).fit(gaussian_data)
        radii = np.linalg.norm(
            enhancer._whitener.transform(gaussian_data), axis=1
        )
        assert enhancer.threshold_ == pytest.approx(np.quantile(radii, 0.8))

    def test_gpd_shape_is_capped(self, gaussian_data):
        enhancer = GpdTailEnhancer(shape_cap=0.2).fit(gaussian_data)
        assert enhancer.gpd_shape_ <= 0.2

    def test_tiny_sample_falls_back_to_exponential(self):
        data = np.random.default_rng(0).standard_normal((8, 2))
        enhancer = GpdTailEnhancer().fit(data)
        assert enhancer.gpd_scale_ > 0


class TestSampling:
    def test_sample_shape_and_determinism(self, gaussian_data):
        enhancer = GpdTailEnhancer().fit(gaussian_data)
        a = enhancer.sample(500, rng=1)
        b = enhancer.sample(500, rng=1)
        assert a.shape == (500, 3)
        np.testing.assert_array_equal(a, b)

    def test_samples_match_body_statistics(self, gaussian_data):
        enhancer = GpdTailEnhancer().fit(gaussian_data)
        samples = enhancer.sample(20_000, rng=0)
        # Mean preserved; spread within a reasonable factor of the data.
        np.testing.assert_allclose(samples.mean(axis=0), gaussian_data.mean(axis=0),
                                   atol=0.15)
        ratio = samples.std(axis=0) / gaussian_data.std(axis=0)
        assert np.all(ratio > 0.7) and np.all(ratio < 1.6)

    def test_enhancement_extends_the_tail(self, gaussian_data):
        enhancer = GpdTailEnhancer().fit(gaussian_data)
        samples = enhancer.sample(20_000, rng=0)
        data_max = np.linalg.norm(
            enhancer._whitener.transform(gaussian_data), axis=1
        ).max()
        sample_max = np.linalg.norm(
            enhancer._whitener.transform(samples), axis=1
        ).max()
        assert sample_max > data_max

    def test_sample_size_validation(self, gaussian_data):
        with pytest.raises(ValueError):
            GpdTailEnhancer().fit(gaussian_data).sample(0)

