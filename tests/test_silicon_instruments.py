"""Bench instruments: noise statistics and validation."""

import numpy as np
import pytest

from repro.silicon.instruments import DelayAnalyzer, Instrument, PowerMeter


def test_rejects_negative_sigmas():
    with pytest.raises(ValueError):
        Instrument(gain_sigma=-0.1)
    with pytest.raises(ValueError):
        Instrument(offset_sigma=-0.1)


def test_noise_free_instrument_is_transparent():
    meter = Instrument(seed=0)
    assert meter.read(3.14) == 3.14


def test_gain_noise_statistics():
    meter = Instrument(gain_sigma=0.02, seed=0)
    readings = np.array([meter.read(10.0) for _ in range(4000)])
    rel = readings / 10.0 - 1.0
    assert abs(rel.mean()) < 0.002
    assert rel.std() == pytest.approx(0.02, rel=0.1)


def test_offset_noise_statistics():
    meter = Instrument(offset_sigma=0.5, seed=0)
    readings = np.array([meter.read(0.0) for _ in range(4000)])
    assert readings.std() == pytest.approx(0.5, rel=0.1)


def test_read_is_seeded():
    assert Instrument(gain_sigma=0.1, seed=3).read(1.0) == Instrument(
        gain_sigma=0.1, seed=3
    ).read(1.0)


def test_power_meter_default_noise():
    meter = PowerMeter(seed=0)
    assert meter.gain_sigma == pytest.approx(0.0015)
    assert meter.offset_sigma == 0.0


def test_delay_analyzer_default_noise():
    analyzer = DelayAnalyzer(seed=0)
    assert analyzer.gain_sigma == pytest.approx(0.002)


def test_shared_generator_advances_state():
    rng = np.random.default_rng(0)
    meter = Instrument(gain_sigma=0.1, seed=rng)
    assert meter.read(1.0) != meter.read(1.0)
