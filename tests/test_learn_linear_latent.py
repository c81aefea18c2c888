"""The latent-gain regressor."""

import numpy as np
import pytest

from repro.learn.latent import LatentGainMars


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


class TestLatentGainMars:
    def test_predictions_are_exactly_proportional(self, rng):
        x = rng.uniform(0.8, 1.2, size=(120, 1))
        means = np.array([10.0, 20.0, 30.0])
        gains = 1.0 + 0.5 * (x[:, 0] - 1.0)
        y = gains[:, None] * means[None, :]
        model = LatentGainMars().fit(x, y)
        pred = model.predict(x)
        ratios = pred / pred[:, :1]
        np.testing.assert_allclose(ratios - ratios[0][None, :], 0.0, atol=1e-12)

    def test_recovers_gain_relation(self, rng):
        x = rng.uniform(0.8, 1.2, size=(200, 1))
        means = np.array([10.0, 20.0])
        gains = 1.0 + 0.6 * (x[:, 0] - 1.0)
        y = gains[:, None] * means[None, :]
        model = LatentGainMars().fit(x, y)
        # The latent gain is defined relative to the training means, so check
        # the reconstructed fingerprints rather than the raw gain scale.
        np.testing.assert_allclose(model.predict(x), y, rtol=1e-3)

    def test_rejects_zero_mean_feature(self, rng):
        x = rng.uniform(0, 1, size=(50, 1))
        y = np.column_stack([x[:, 0], np.zeros(50)])
        with pytest.raises(ValueError, match="zero mean"):
            LatentGainMars().fit(x, y)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            LatentGainMars().predict(np.zeros((1, 1)))

