"""Bench instruments: every silicon measurement passes through one of these.

Simulated (pre-manufacturing) data is noise-free — Spice does not have a
noisy power meter — while silicon measurements carry gain error and additive
noise.  Keeping instruments explicit lets tests and ablations control the
measurement-noise floor independently of process variation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.rng import SeedLike, as_generator


@dataclass
class Instrument:
    """A measurement channel with relative gain noise and additive noise.

    measured = true * (1 + gain_sigma * z1) + offset_sigma * z2

    Parameters
    ----------
    gain_sigma:
        Relative (multiplicative) 1-sigma error per reading.
    offset_sigma:
        Additive 1-sigma error per reading, in the measurand's units.
    seed:
        Seed or shared generator.
    """

    gain_sigma: float = 0.0
    offset_sigma: float = 0.0
    seed: SeedLike = None

    def __post_init__(self):
        if self.gain_sigma < 0 or self.offset_sigma < 0:
            raise ValueError("noise sigmas must be non-negative")
        self._rng = as_generator(self.seed)

    def read(self, true_value: float) -> float:
        """One noisy scalar reading."""
        gain = 1.0 + self.gain_sigma * self._rng.standard_normal()
        return float(true_value * gain + self.offset_sigma * self._rng.standard_normal())


class PowerMeter(Instrument):
    """RF power meter used for fingerprint measurements (0.15 % gain noise)."""

    def __init__(self, seed: SeedLike = None, gain_sigma: float = 0.0015):
        super().__init__(gain_sigma=gain_sigma, offset_sigma=0.0, seed=seed)


class DelayAnalyzer(Instrument):
    """Time-interval analyzer used for PCM path delays (0.2 % gain noise)."""

    def __init__(self, seed: SeedLike = None, gain_sigma: float = 0.002):
        super().__init__(gain_sigma=gain_sigma, offset_sigma=0.0, seed=seed)
