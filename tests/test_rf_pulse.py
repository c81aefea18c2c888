"""Gaussian monocycle pulses and pulse trains."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rf.pulse import PulseTrain


def _energy(amplitude, freq):
    """Closed-form energy of one pulse, read through :class:`PulseTrain`."""
    return PulseTrain([0], [amplitude], [freq]).pulse_energies()[0]


class TestGaussianMonocycle:
    def test_energy_matches_numerical_integral(self):
        amplitude, freq = 1.5, 4.3
        sigma = 1.0 / (2.0 * np.pi * freq)
        t = np.linspace(-1.0, 1.0, 400001)
        waveform = -amplitude * (t / sigma) * np.exp(0.5 - t**2 / (2.0 * sigma**2))
        numeric = np.trapezoid(waveform**2, t)
        assert _energy(amplitude, freq) == pytest.approx(numeric, rel=1e-4)

    @given(st.floats(min_value=0.1, max_value=5.0), st.floats(min_value=1.0, max_value=10.0))
    def test_energy_scales_with_amplitude_squared(self, amplitude, freq):
        one = _energy(1.0, freq)
        scaled = _energy(amplitude, freq)
        assert scaled == pytest.approx(amplitude**2 * one, rel=1e-9)

    def test_energy_decreases_with_frequency(self):
        low = _energy(1.0, 3.0)
        high = _energy(1.0, 6.0)
        assert high == pytest.approx(low / 2.0, rel=1e-9)


class TestPulseTrain:
    def _train(self, n=5):
        return PulseTrain(
            bit_indices=np.arange(n),
            amplitudes=np.full(n, 2.0),
            center_frequencies_ghz=np.full(n, 4.3),
        )

    def test_len(self):
        assert len(self._train(7)) == 7

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            PulseTrain(bit_indices=[0, 1], amplitudes=[1.0], center_frequencies_ghz=[4.0, 4.0])

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            PulseTrain(bit_indices=[0], amplitudes=[-1.0], center_frequencies_ghz=[4.0])

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            PulseTrain(bit_indices=[0], amplitudes=[1.0], center_frequencies_ghz=[0.0])

    def test_pulse_energies_match_single_pulse(self):
        train = self._train(3)
        np.testing.assert_allclose(train.pulse_energies(), _energy(2.0, 4.3))
