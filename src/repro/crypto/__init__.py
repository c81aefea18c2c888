"""Cryptographic substrate: a from-scratch AES-128 core and bit utilities.

The wireless cryptographic IC used as the paper's experimentation platform
encrypts plaintext blocks with AES-128 before serializing the ciphertext to
the UWB transmitter.  This package provides that core.
"""

from repro.crypto.aes import AES128
from repro.crypto.bits import bytes_to_bits, random_block, random_key

__all__ = [
    "AES128",
    "bytes_to_bits",
    "random_block",
    "random_key",
]
