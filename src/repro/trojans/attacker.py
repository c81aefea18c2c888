"""Attacker-side key recovery from the public wireless channel.

Demonstrates that the Trojans actually leak: an eavesdropper who knows the
encoding observes many block transmissions, averages the per-bit-position
pulse amplitude (or centre frequency), and thresholds against the per-device
baseline to decide each key bit.  Positions whose average modulated quantity
sits *above* the baseline correspond to key bit '0' (the Trojans increase
the quantity for '0' bits); the rest are '1'.

The attacker needs no golden chip, no key, and no physical access — only the
public channel — which is exactly why these Trojans evade functional testing
and motivate side-channel detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.rf.pulse import PulseTrain

BLOCK_BITS = 128


@dataclass
class KeyRecoveryAttacker:
    """Recovers a 128-bit leaked key from observed pulse trains.

    Parameters
    ----------
    mode:
        ``"amplitude"`` to attack Trojan I, ``"frequency"`` for Trojan II.
    """

    mode: str = "amplitude"
    _sums: np.ndarray = field(default_factory=lambda: np.zeros(BLOCK_BITS), repr=False)
    _counts: np.ndarray = field(default_factory=lambda: np.zeros(BLOCK_BITS), repr=False)

    def __post_init__(self):
        if self.mode not in ("amplitude", "frequency"):
            raise ValueError(f"mode must be 'amplitude' or 'frequency', got {self.mode!r}")

    def observe(self, train: PulseTrain) -> None:
        """Accumulate one intercepted block transmission."""
        values = (
            train.amplitudes if self.mode == "amplitude" else train.center_frequencies_ghz
        )
        np.add.at(self._sums, train.bit_indices, values)
        np.add.at(self._counts, train.bit_indices, 1)

    def coverage(self) -> float:
        """Fraction of the 128 bit positions observed at least once."""
        return float(np.mean(self._counts > 0))

    def recover_key_bits(self) -> Optional[np.ndarray]:
        """Return the recovered 128 key bits, or ``None`` if coverage < 100 %.

        Decision rule: positions whose mean observed quantity exceeds the
        midpoint between the two empirical clusters are decoded as key '0'
        (the Trojans *increase* amplitude/frequency for leaked '0' bits).
        """
        if np.any(self._counts == 0):
            return None
        means = self._sums / self._counts
        low, high = means.min(), means.max()
        if high - low < 1e-12:
            # No modulation present (Trojan-free device): decode all-ones,
            # i.e. "nothing leaked" — callers should check leak_margin().
            return np.ones(BLOCK_BITS, dtype=int)
        threshold = 0.5 * (low + high)
        return np.where(means > threshold, 0, 1).astype(int)

    def leak_margin(self) -> float:
        """Relative separation between the two decoded clusters.

        Near zero for a Trojan-free device; approximately the Trojan
        modulation depth for an infested one.
        """
        observed = self._counts > 0
        if not np.any(observed):
            return 0.0
        means = self._sums[observed] / self._counts[observed]
        mid = 0.5 * (means.min() + means.max())
        if mid == 0:
            return 0.0
        return float((means.max() - means.min()) / mid)
