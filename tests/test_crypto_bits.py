"""Bit/byte conversion and random block helpers."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.bits import (
    BLOCK_BITS,
    BLOCK_BYTES,
    bytes_to_bits,
    random_block,
    random_key,
)


def test_bytes_to_bits_msb_first():
    bits = bytes_to_bits(b"\x80\x01")
    assert bits.tolist() == [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]


@given(st.binary(min_size=0, max_size=64))
def test_round_trip(data):
    assert np.packbits(bytes_to_bits(data)).tobytes() == data


def test_random_block_shape_and_determinism():
    assert len(random_block(rng=0)) == BLOCK_BYTES
    assert random_block(rng=0) == random_block(rng=0)
    assert random_block(rng=0) != random_block(rng=1)


def test_random_key_is_a_block():
    key = random_key(rng=7)
    assert len(key) * 8 == BLOCK_BITS
