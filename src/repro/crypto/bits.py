"""Bit/byte conversion helpers used by the crypto core and the serializer.

All conversions are most-significant-bit first, matching the order in which
the serialization buffer of the wireless cryptographic IC shifts ciphertext
bits out to the UWB transmitter.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import SeedLike, as_generator

BLOCK_BYTES = 16
BLOCK_BITS = 128


def bytes_to_bits(data: bytes) -> np.ndarray:
    """Expand ``data`` into a ``uint8`` array of bits, MSB first per byte."""
    arr = np.frombuffer(bytes(data), dtype=np.uint8)
    return np.unpackbits(arr)


def random_block(rng: SeedLike = None) -> bytes:
    """Draw a uniformly random 128-bit block (e.g. a plaintext)."""
    gen = as_generator(rng)
    return gen.integers(0, 256, size=BLOCK_BYTES, dtype=np.uint8).tobytes()


def random_key(rng: SeedLike = None) -> bytes:
    """Draw a uniformly random AES-128 key."""
    return random_block(rng)
