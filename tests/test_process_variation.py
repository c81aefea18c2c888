"""Hierarchical variation model: magnitudes, correlation, determinism."""

import numpy as np
import pytest

from repro.process.parameters import PARAMETER_NAMES, nominal_350nm
from repro.process.variation import VariationModel, default_variation_350nm


def _sample_many(draw, n=600, seed=0):
    rng = np.random.default_rng(seed)
    draws = [draw(rng) for _ in range(n)]
    return np.array([[getattr(p, name) for name in PARAMETER_NAMES] for p in draws])


class TestValidation:
    def test_rejects_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown"):
            VariationModel(die_sigma={"bogus": 0.1})

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="non-negative"):
            VariationModel(die_sigma={"vth_n": -0.1})

    def test_rejects_loading_out_of_range(self):
        with pytest.raises(ValueError, match="speed_loading"):
            VariationModel(speed_loading={"vth_n": 1.5})


class TestSampling:
    def test_die_sigma_magnitude(self):
        model = default_variation_350nm()
        base = nominal_350nm()
        samples = _sample_many(lambda r: model.sample_die(base, r))
        rel_std = samples[:, 0].std() / base.vth_n
        assert rel_std == pytest.approx(model.die_sigma["vth_n"], rel=0.15)

    def test_zero_sigma_parameter_is_untouched(self):
        model = VariationModel(die_sigma={"vth_n": 0.02})
        base = nominal_350nm()
        out = model.sample_die(base, 0)
        assert out.tox == base.tox
        assert out.vth_n != base.vth_n

    def test_speed_factor_correlates_parameters(self):
        model = default_variation_350nm()
        base = nominal_350nm()
        samples = _sample_many(lambda r: model.sample_die(base, r))
        vth = samples[:, 0]
        mob = samples[:, 2]
        corr = np.corrcoef(vth, mob)[0, 1]
        # loadings are -0.97 and +0.97 -> strong anti-correlation expected.
        assert corr < -0.8

    def test_within_die_is_uncorrelated(self):
        model = default_variation_350nm()
        base = nominal_350nm()
        samples = _sample_many(lambda r: model.sample_structure(base, r))
        corr = np.corrcoef(samples[:, 0], samples[:, 2])[0, 1]
        assert abs(corr) < 0.2

    def test_determinism_given_seed(self):
        model = default_variation_350nm()
        base = nominal_350nm()
        assert model.sample_die(base, 5) == model.sample_die(base, 5)

    def test_lot_then_die_compounds_spread(self):
        model = default_variation_350nm()
        base = nominal_350nm()

        def draw(rng):
            return model.sample_die(model.sample_lot(base, rng), rng)

        samples = _sample_many(draw)
        rel_std = samples[:, 0].std() / base.vth_n
        expected = np.hypot(model.lot_sigma["vth_n"], model.die_sigma["vth_n"])
        assert rel_std == pytest.approx(expected, rel=0.15)
