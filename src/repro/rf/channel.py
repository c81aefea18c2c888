"""The public wireless channel between the chip and the measurement bench.

The channel applies a (calibrated, hence near-unity) path gain.  Trojan
leakage in the paper travels over exactly this channel: an attacker who
knows what to listen for recovers the key from pulse amplitudes/frequencies,
while a legitimate receiver sees a fully functional transmission.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rf.pulse import PulseTrain


@dataclass
class AwgnChannel:
    """Fixed multiplicative-gain channel.

    Parameters
    ----------
    path_gain:
        Amplitude gain from antenna to bench (1.0 = calibrated out).
    """

    path_gain: float = 1.0

    def __post_init__(self):
        if self.path_gain <= 0:
            raise ValueError(f"path_gain must be positive, got {self.path_gain}")

    def propagate(self, train: PulseTrain) -> PulseTrain:
        """Return the pulse train as observed at the receiving antenna."""
        return PulseTrain(
            bit_indices=train.bit_indices.copy(),
            amplitudes=train.amplitudes * self.path_gain,
            center_frequencies_ghz=train.center_frequencies_ghz.copy(),
        )
