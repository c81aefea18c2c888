"""Band-pass receiver and wireless channel."""

import numpy as np
import pytest

from repro.rf.channel import AwgnChannel
from repro.rf.pulse import PulseTrain
from repro.rf.receiver import BandPassReceiver


def _train(amplitudes, freqs):
    n = len(amplitudes)
    return PulseTrain(
        bit_indices=np.arange(n),
        amplitudes=np.asarray(amplitudes, dtype=float),
        center_frequencies_ghz=np.asarray(freqs, dtype=float),
    )


class TestReceiver:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BandPassReceiver(center_frequency_ghz=0.0)
        with pytest.raises(ValueError):
            BandPassReceiver(bandwidth_ghz=-1.0)

    def test_band_response_peaks_at_center(self):
        rx = BandPassReceiver(center_frequency_ghz=4.3, bandwidth_ghz=1.0)
        freqs = np.array([3.3, 4.3, 5.3])
        response = rx.band_response(freqs)
        assert response[1] == pytest.approx(1.0)
        assert response[0] == pytest.approx(response[2])
        assert response[0] < 1.0

    def test_block_power_of_empty_train_is_zero(self):
        assert BandPassReceiver().block_power(
            PulseTrain(bit_indices=[], amplitudes=[], center_frequencies_ghz=[])
        ) == 0.0

    def test_block_power_sums_pulse_energy(self):
        rx = BandPassReceiver(center_frequency_ghz=4.3, bandwidth_ghz=2.0)
        one = rx.block_power(_train([1.0], [4.3]))
        five = rx.block_power(_train([1.0] * 5, [4.3] * 5))
        assert five == pytest.approx(5.0 * one)

    def test_detuned_pulses_lose_power(self):
        rx = BandPassReceiver(center_frequency_ghz=4.3, bandwidth_ghz=1.0)
        on_band = rx.block_power(_train([1.0], [4.3]))
        # Compensate the 1/f pulse-energy factor so only the band matters.
        detuned = rx.block_power(_train([np.sqrt(6.0 / 4.3)], [6.0]))
        assert detuned < on_band

    def test_power_scales_with_amplitude_squared(self):
        rx = BandPassReceiver()
        one = rx.block_power(_train([1.0], [4.3]))
        double = rx.block_power(_train([2.0], [4.3]))
        assert double == pytest.approx(4.0 * one)


class TestChannel:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AwgnChannel(path_gain=0.0)
        with pytest.raises(ValueError):
            AwgnChannel(path_gain=-1.0)

    def test_ideal_channel_preserves_train(self):
        train = _train([1.0, 2.0], [4.3, 4.3])
        out = AwgnChannel().propagate(train)
        np.testing.assert_allclose(out.amplitudes, train.amplitudes)
        np.testing.assert_array_equal(out.bit_indices, train.bit_indices)

    def test_path_gain_scales_amplitudes(self):
        train = _train([1.0, 2.0], [4.3, 4.3])
        out = AwgnChannel(path_gain=0.5).propagate(train)
        np.testing.assert_allclose(out.amplitudes, [0.5, 1.0])

    def test_propagate_does_not_mutate_input(self):
        train = _train([1.0], [4.3])
        AwgnChannel(path_gain=0.1).propagate(train)
        assert train.amplitudes[0] == 1.0
