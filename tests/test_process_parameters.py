"""Process parameters and operating-point shifts."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.process.parameters import (
    PARAMETER_NAMES,
    OperatingPointShift,
    ProcessParameters,
    nominal_350nm,
)


class TestProcessParameters:
    def test_perturbed_is_additive_and_pure(self):
        base = nominal_350nm()
        out = base.perturbed({"vth_n": 0.01})
        assert out.vth_n == pytest.approx(base.vth_n + 0.01)
        assert out.vth_p == base.vth_p
        assert base.vth_n == nominal_350nm().vth_n  # base untouched

    def test_perturbed_rejects_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown"):
            nominal_350nm().perturbed({"vdd": 0.1})

    def test_validate_rejects_nonphysical(self):
        with pytest.raises(ValueError):
            ProcessParameters(vth_n=2.0).validate()
        with pytest.raises(ValueError):
            ProcessParameters(tox=-1.0).validate()
        with pytest.raises(ValueError):
            ProcessParameters(mobility_n=0.0).validate()

    def test_parameter_names_match_fields(self):
        params = nominal_350nm()
        for name in PARAMETER_NAMES:
            assert hasattr(params, name)


class TestOperatingPointShift:
    def test_none_shift_is_identity(self):
        base = nominal_350nm()
        assert base.shifted(OperatingPointShift.none()) == base

    def test_shift_is_multiplicative(self):
        base = nominal_350nm()
        shifted = base.shifted(OperatingPointShift(relative={"tox": -0.10}))
        assert shifted.tox == pytest.approx(base.tox * 0.90)

    def test_rejects_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown"):
            OperatingPointShift(relative={"bogus": 0.1})

    def test_typical_drift_scales_linearly(self):
        one = OperatingPointShift.typical_drift(1.0)
        two = OperatingPointShift.typical_drift(2.0)
        for name, value in one.relative.items():
            assert two.relative[name] == pytest.approx(2.0 * value)

    def test_typical_drift_is_a_speed_up(self):
        drift = OperatingPointShift.typical_drift()
        assert drift.relative["vth_n"] < 0
        assert drift.relative["mobility_n"] > 0
        assert drift.relative["tox"] < 0

    def test_magnitude(self):
        assert not any(OperatingPointShift.none().relative.values())
        assert any(OperatingPointShift.typical_drift().relative.values())

    @given(st.floats(min_value=0.0, max_value=3.0))
    def test_magnitude_scales(self, scale):
        base = OperatingPointShift.typical_drift(1.0).relative
        scaled = OperatingPointShift.typical_drift(scale).relative
        assert scaled.keys() == base.keys()
        for name, value in base.items():
            assert scaled[name] == pytest.approx(scale * value, abs=1e-12)

    def test_shifted_parameters_remain_physical_for_moderate_drift(self):
        base = nominal_350nm()
        shifted = base.shifted(OperatingPointShift.typical_drift(2.0))
        shifted.validate()
        assert all(getattr(shifted, name) > 0 for name in PARAMETER_NAMES)
