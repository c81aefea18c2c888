"""Vectorized trains of Gaussian monocycle pulses.

A UWB transmitter emits very short pulses whose energy concentrates around a
centre frequency set by the pulse-shaping circuit.  Each pulse is a Gaussian
monocycle, the first derivative of a Gaussian,

    v(t) = -A * (t/sigma) * exp(0.5 - t^2 / (2 sigma^2)),
    sigma = 1 / (2 pi f_c),

whose peak magnitude is the amplitude A and whose spectrum peaks at the
centre frequency f_c.  For fingerprinting we only need each pulse's
amplitude and centre frequency — the receiver reduces everything to
band-limited energy — so a :class:`PulseTrain` stores those as flat numpy
arrays rather than sampled waveforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class PulseTrain:
    """A block transmission as parallel arrays, one entry per emitted pulse.

    Attributes
    ----------
    bit_indices:
        Position (0..127) of the ciphertext bit each pulse encodes.
    amplitudes:
        Per-pulse peak amplitude in volts.
    center_frequencies_ghz:
        Per-pulse centre frequency.
    """

    bit_indices: np.ndarray
    amplitudes: np.ndarray
    center_frequencies_ghz: np.ndarray

    def __post_init__(self):
        self.bit_indices = np.asarray(self.bit_indices, dtype=int)
        self.amplitudes = np.asarray(self.amplitudes, dtype=float)
        self.center_frequencies_ghz = np.asarray(self.center_frequencies_ghz, dtype=float)
        n = self.bit_indices.shape[0]
        if self.amplitudes.shape != (n,) or self.center_frequencies_ghz.shape != (n,):
            raise ValueError("PulseTrain arrays must be 1-D with equal lengths")
        if np.any(self.amplitudes < 0):
            raise ValueError("pulse amplitudes must be non-negative")
        if np.any(self.center_frequencies_ghz <= 0):
            raise ValueError("pulse centre frequencies must be positive")

    def __len__(self) -> int:
        return int(self.bit_indices.shape[0])

    def pulse_energies(self) -> np.ndarray:
        """Per-pulse energy, the integral of v(t)^2, in V^2*ns.

        With u = t/sigma, E = A^2 sigma e Int u^2 exp(-u^2) du
        = A^2 sigma e sqrt(pi)/2.
        """
        sigma = 1.0 / (2.0 * np.pi * self.center_frequencies_ghz)
        return self.amplitudes**2 * sigma * np.e * np.sqrt(np.pi) / 2.0
