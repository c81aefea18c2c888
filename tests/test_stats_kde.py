"""Epanechnikov KDE: kernel maths, bandwidths, adaptivity, sampling."""

import numpy as np
import pytest
from scipy import integrate

from repro.stats.kde import (
    AdaptiveKde,
    EpanechnikovKde,
    _sample_unit_epanechnikov,
    epanechnikov_bandwidth,
    unit_ball_volume,
)
from tests.oracles import epanechnikov_kernel_value, sample_unit_epanechnikov_fresh


class TestKernelMaths:
    def test_unit_ball_volumes(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(np.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 * np.pi / 3.0)

    def test_kernel_zero_outside_unit_ball(self):
        t = np.array([[1.5, 0.0], [0.0, -2.0]])
        np.testing.assert_array_equal(epanechnikov_kernel_value(t), 0.0)

    def test_kernel_integrates_to_one_1d(self):
        value, _ = integrate.quad(lambda t: epanechnikov_kernel_value([[t]])[0], -1, 1)
        assert value == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_kernel_integrates_to_one_2d(self):
        value, _ = integrate.dblquad(
            lambda y, x: epanechnikov_kernel_value([[x, y]])[0], -1, 1, -1, 1
        )
        assert value == pytest.approx(1.0, rel=1e-4)

    def test_bandwidth_shrinks_with_n(self):
        assert epanechnikov_bandwidth(1000, 3) < epanechnikov_bandwidth(100, 3)

    def test_bandwidth_validation(self):
        with pytest.raises(ValueError):
            epanechnikov_bandwidth(0, 3)
        with pytest.raises(ValueError):
            epanechnikov_bandwidth(10, 0)


class TestSamplerBuffers:
    """The in-place sampler draws what the fresh-array sampler draws."""

    @pytest.mark.parametrize("count", [1, 63, 64, 1000, 30_000])
    @pytest.mark.parametrize("d", [1, 2, 6, 8])
    def test_same_draws_and_stream(self, count, d):
        gen = np.random.default_rng(count * 10 + d)
        oracle_gen = np.random.default_rng(count * 10 + d)
        draws = _sample_unit_epanechnikov(count, d, gen)
        expected = sample_unit_epanechnikov_fresh(count, d, oracle_gen)
        assert draws.shape == (count, d)
        assert draws.tobytes() == expected.tobytes()
        assert gen.bit_generator.state == oracle_gen.bit_generator.state


class TestFixedKde:
    def test_density_integrates_to_one_1d(self):
        rng = np.random.default_rng(0)
        kde = EpanechnikovKde(whiten=False).fit(rng.standard_normal((200, 1)))
        grid = np.linspace(-6, 6, 2000)[:, None]
        total = np.trapezoid(kde.density(grid), grid[:, 0])
        assert total == pytest.approx(1.0, rel=1e-2)

    def test_density_with_whitening_integrates_to_one(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((200, 1)) * 3.0 + 5.0
        kde = EpanechnikovKde(whiten=True).fit(data)
        grid = np.linspace(-20, 30, 4000)[:, None]
        total = np.trapezoid(kde.density(grid), grid[:, 0])
        assert total == pytest.approx(1.0, rel=1e-2)

    def test_density_zero_far_away(self):
        kde = EpanechnikovKde().fit(np.random.default_rng(0).standard_normal((50, 2)))
        assert kde.density(np.array([[50.0, 50.0]]))[0] == 0.0

    def test_sampling_statistics(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((300, 2)) * np.array([2.0, 0.5])
        kde = EpanechnikovKde().fit(data)
        samples = kde.sample(20_000, rng=1)
        # Smoothing inflates the variance; sample std must bracket the data std.
        assert samples.std(axis=0)[0] == pytest.approx(2.0, rel=0.25)
        assert samples.std(axis=0)[1] == pytest.approx(0.5, rel=0.25)

    def test_sample_determinism(self):
        kde = EpanechnikovKde().fit(np.random.default_rng(0).standard_normal((40, 3)))
        np.testing.assert_array_equal(kde.sample(100, rng=5), kde.sample(100, rng=5))

    def test_explicit_bandwidth_used(self):
        kde = EpanechnikovKde(bandwidth=0.3).fit(np.zeros((10, 2)) + 1.0)
        assert kde.h == 0.3

    def test_bandwidth_scale_applies(self):
        data = np.random.default_rng(0).standard_normal((60, 2))
        full = EpanechnikovKde(bandwidth_scale=1.0).fit(data)
        half = EpanechnikovKde(bandwidth_scale=0.5).fit(data)
        assert half.h == pytest.approx(0.5 * full.h)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            EpanechnikovKde().density(np.zeros((1, 2)))
        with pytest.raises(RuntimeError):
            EpanechnikovKde().sample(10)

    def test_sample_size_validation(self):
        kde = EpanechnikovKde().fit(np.random.default_rng(0).standard_normal((20, 2)))
        with pytest.raises(ValueError):
            kde.sample(0)


class TestAdaptiveKde:
    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            AdaptiveKde(alpha=-0.1)
        with pytest.raises(ValueError):
            AdaptiveKde(alpha=1.5)

    def test_alpha_zero_matches_fixed_bandwidths(self):
        data = np.random.default_rng(0).standard_normal((80, 2))
        kde = AdaptiveKde(alpha=0.0).fit(data)
        np.testing.assert_allclose(kde._lambdas, 1.0)

    def test_tail_points_get_larger_bandwidths(self):
        rng = np.random.default_rng(0)
        data = np.vstack([rng.standard_normal((100, 1)), [[6.0]]])
        kde = AdaptiveKde(alpha=0.5).fit(data)
        lambdas = kde._lambdas
        assert lambdas[-1] > np.median(lambdas[:-1])

    def test_geometric_mean_normalization(self):
        data = np.random.default_rng(0).standard_normal((100, 2))
        lambdas = AdaptiveKde(alpha=0.5).fit(data)._lambdas
        assert np.exp(np.mean(np.log(lambdas))) == pytest.approx(1.0, rel=0.05)

    def test_adaptive_samples_reach_further_than_fixed(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((100, 1))
        fixed = EpanechnikovKde().fit(data).sample(20_000, rng=1)
        adaptive = AdaptiveKde(alpha=1.0).fit(data).sample(20_000, rng=1)
        assert np.abs(adaptive).max() > np.abs(fixed).max()

    def test_adaptive_density_integrates_to_one(self):
        rng = np.random.default_rng(0)
        kde = AdaptiveKde(alpha=0.5, whiten=False).fit(rng.standard_normal((150, 1)))
        grid = np.linspace(-8, 8, 3000)[:, None]
        total = np.trapezoid(kde.density(grid), grid[:, 0])
        assert total == pytest.approx(1.0, rel=1e-2)

    def test_floor_sigma_bounds_degenerate_direction(self):
        # Rank-deficient data: second coordinate constant.
        data = np.column_stack([np.linspace(0, 1, 50), np.full(50, 3.0)])
        kde = AdaptiveKde(floor_sigma=0.1).fit(data)
        samples = kde.sample(5000, rng=0)
        spread = samples[:, 1].std()
        assert 0.0 < spread < 0.2  # inflated up to ~the floor, no further
