"""The serialization buffer between the AES core and the UWB transmitter.

The digital back-end of the platform chip buffers each 128-bit ciphertext and
shifts it out MSB-first to the transmitter.  It is also the place where the
Trojan taps the datapath: the leaked key bit stream is aligned one-to-one
with the outgoing ciphertext bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crypto.bits import BLOCK_BITS, bytes_to_bits


@dataclass(frozen=True)
class SerializationBuffer:
    """Fixed-function 128-bit serializer (MSB-first)."""

    block_bits: int = BLOCK_BITS

    def serialize(self, ciphertext: bytes) -> np.ndarray:
        """Expand one ciphertext block into its outgoing bit stream.

        Raises ``ValueError`` for a block of the wrong size — the hardware
        buffer is exactly 128 bits wide.
        """
        if len(ciphertext) * 8 != self.block_bits:
            raise ValueError(
                f"ciphertext must be {self.block_bits // 8} bytes, got {len(ciphertext)}"
            )
        return bytes_to_bits(ciphertext)
