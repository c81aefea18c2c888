"""A from-scratch AES-128 implementation (FIPS-197).

This is the digital heart of the wireless cryptographic IC: plaintext blocks
are encrypted with an on-chip key before serialization and UWB transmission.
The implementation favours clarity over speed — the S-box is derived from its
algebraic definition (multiplicative inverse in GF(2^8) followed by the FIPS
affine transform) rather than pasted as a magic table, and every round
operation is its own function so tests can exercise them independently.

Only AES-128 (Nk=4, Nr=10) is provided because that is what the platform
chip implements.
"""

from __future__ import annotations

from typing import List

import numpy as np

# ---------------------------------------------------------------------------
# GF(2^8) arithmetic (the AES field, reduction polynomial x^8+x^4+x^3+x+1)
# ---------------------------------------------------------------------------

AES_MODULUS = 0x11B


def gf_mul(a: int, b: int) -> int:
    """Multiply two field elements in GF(2^8) with the AES modulus."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= AES_MODULUS
        b >>= 1
    return result


def gf_inv(a: int) -> int:
    """Multiplicative inverse in GF(2^8); by convention ``gf_inv(0) == 0``."""
    if a == 0:
        return 0
    # Fermat: a^(2^8 - 2) = a^254 is the inverse in GF(2^8).
    result = 1
    power = a
    exponent = 254
    while exponent:
        if exponent & 1:
            result = gf_mul(result, power)
        power = gf_mul(power, power)
        exponent >>= 1
    return result


def _affine_forward(x: int) -> int:
    """The FIPS-197 affine transform applied after inversion in SubBytes."""
    result = 0
    for i in range(8):
        bit = (
            (x >> i)
            ^ (x >> ((i + 4) % 8))
            ^ (x >> ((i + 5) % 8))
            ^ (x >> ((i + 6) % 8))
            ^ (x >> ((i + 7) % 8))
            ^ (0x63 >> i)
        ) & 1
        result |= bit << i
    return result


def _build_sbox() -> List[int]:
    return [_affine_forward(gf_inv(x)) for x in range(256)]


SBOX: List[int] = _build_sbox()
INV_SBOX: List[int] = [0] * 256
for _i, _v in enumerate(SBOX):
    INV_SBOX[_v] = _i

# Round constants for key expansion: rcon[i] = x^(i-1) in GF(2^8).
RCON: List[int] = [0x01]
for _ in range(9):
    RCON.append(gf_mul(RCON[-1], 0x02))


# ---------------------------------------------------------------------------
# State helpers. The AES state is a 4x4 byte matrix stored column-major,
# represented here as a flat list of 16 ints where state[r + 4*c] is row r,
# column c — the same layout FIPS-197 uses for loading a 16-byte block.
# ---------------------------------------------------------------------------


def _block_to_state(block: bytes) -> List[int]:
    return list(block)


def _state_to_block(state: List[int]) -> bytes:
    return bytes(state)


def sub_bytes(state: List[int]) -> List[int]:
    """Apply the S-box to every state byte."""
    return [SBOX[b] for b in state]


def inv_sub_bytes(state: List[int]) -> List[int]:
    """Apply the inverse S-box to every state byte."""
    return [INV_SBOX[b] for b in state]


def shift_rows(state: List[int]) -> List[int]:
    """Cyclically left-shift row r of the state by r positions."""
    out = [0] * 16
    for r in range(4):
        for c in range(4):
            out[r + 4 * c] = state[r + 4 * ((c + r) % 4)]
    return out


def inv_shift_rows(state: List[int]) -> List[int]:
    """Cyclically right-shift row r of the state by r positions."""
    out = [0] * 16
    for r in range(4):
        for c in range(4):
            out[r + 4 * ((c + r) % 4)] = state[r + 4 * c]
    return out


def mix_columns(state: List[int]) -> List[int]:
    """Multiply each state column by the fixed MixColumns matrix."""
    out = [0] * 16
    for c in range(4):
        col = state[4 * c : 4 * c + 4]
        out[4 * c + 0] = gf_mul(col[0], 2) ^ gf_mul(col[1], 3) ^ col[2] ^ col[3]
        out[4 * c + 1] = col[0] ^ gf_mul(col[1], 2) ^ gf_mul(col[2], 3) ^ col[3]
        out[4 * c + 2] = col[0] ^ col[1] ^ gf_mul(col[2], 2) ^ gf_mul(col[3], 3)
        out[4 * c + 3] = gf_mul(col[0], 3) ^ col[1] ^ col[2] ^ gf_mul(col[3], 2)
    return out


def inv_mix_columns(state: List[int]) -> List[int]:
    """Multiply each state column by the inverse MixColumns matrix."""
    out = [0] * 16
    for c in range(4):
        col = state[4 * c : 4 * c + 4]
        out[4 * c + 0] = (
            gf_mul(col[0], 14) ^ gf_mul(col[1], 11) ^ gf_mul(col[2], 13) ^ gf_mul(col[3], 9)
        )
        out[4 * c + 1] = (
            gf_mul(col[0], 9) ^ gf_mul(col[1], 14) ^ gf_mul(col[2], 11) ^ gf_mul(col[3], 13)
        )
        out[4 * c + 2] = (
            gf_mul(col[0], 13) ^ gf_mul(col[1], 9) ^ gf_mul(col[2], 14) ^ gf_mul(col[3], 11)
        )
        out[4 * c + 3] = (
            gf_mul(col[0], 11) ^ gf_mul(col[1], 13) ^ gf_mul(col[2], 9) ^ gf_mul(col[3], 14)
        )
    return out


def add_round_key(state: List[int], round_key: List[int]) -> List[int]:
    """XOR the state with one 16-byte round key."""
    return [s ^ k for s, k in zip(state, round_key)]


def expand_key(key: bytes) -> List[List[int]]:
    """FIPS-197 key expansion: a 16-byte key into 11 round keys of 16 bytes."""
    if len(key) != 16:
        raise ValueError(f"AES-128 key must be 16 bytes, got {len(key)}")
    words: List[List[int]] = [list(key[4 * i : 4 * i + 4]) for i in range(4)]
    for i in range(4, 44):
        temp = list(words[i - 1])
        if i % 4 == 0:
            temp = temp[1:] + temp[:1]  # RotWord
            temp = [SBOX[b] for b in temp]  # SubWord
            temp[0] ^= RCON[i // 4 - 1]
        words.append([a ^ b for a, b in zip(words[i - 4], temp)])
    round_keys = []
    for r in range(11):
        flat: List[int] = []
        for w in words[4 * r : 4 * r + 4]:
            flat.extend(w)
        round_keys.append(flat)
    return round_keys


class AES128:
    """AES-128 block cipher with a fixed key, as burned into the chip.

    Parameters
    ----------
    key:
        The 16-byte encryption key.  On the platform IC this key is stored
        on-chip and is precisely what the hardware Trojans try to leak.
    """

    def __init__(self, key: bytes):
        self._round_keys = expand_key(key)
        self._key = bytes(key)

    @property
    def key(self) -> bytes:
        """The on-chip key (accessible in simulation; secret on real silicon)."""
        return self._key

    def encrypt_block(self, plaintext: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(plaintext) != 16:
            raise ValueError(f"plaintext block must be 16 bytes, got {len(plaintext)}")
        state = _block_to_state(plaintext)
        state = add_round_key(state, self._round_keys[0])
        for r in range(1, 10):
            state = sub_bytes(state)
            state = shift_rows(state)
            state = mix_columns(state)
            state = add_round_key(state, self._round_keys[r])
        state = sub_bytes(state)
        state = shift_rows(state)
        state = add_round_key(state, self._round_keys[10])
        return _state_to_block(state)

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        """Decrypt one 16-byte block."""
        if len(ciphertext) != 16:
            raise ValueError(f"ciphertext block must be 16 bytes, got {len(ciphertext)}")
        state = _block_to_state(ciphertext)
        state = add_round_key(state, self._round_keys[10])
        for r in range(9, 0, -1):
            state = inv_shift_rows(state)
            state = inv_sub_bytes(state)
            state = add_round_key(state, self._round_keys[r])
            state = inv_mix_columns(state)
        state = inv_shift_rows(state)
        state = inv_sub_bytes(state)
        state = add_round_key(state, self._round_keys[0])
        return _state_to_block(state)


# ---------------------------------------------------------------------------
# Vectorized block encryption for the batched population engine.
#
# Every AES round operation is a byte-table lookup, a fixed permutation or a
# XOR — integer operations with no rounding — so applying them to uint8
# ndarrays via numpy fancy indexing is bit-identical to the scalar reference
# by construction.  The tables are derived from the same algebraic SBOX /
# gf_mul definitions above, not pasted constants.
# ---------------------------------------------------------------------------

_SBOX_TABLE = np.array(SBOX, dtype=np.uint8)
_MUL2_TABLE = np.array([gf_mul(value, 2) for value in range(256)], dtype=np.uint8)
_MUL3_TABLE = np.array([gf_mul(value, 3) for value in range(256)], dtype=np.uint8)
#: Gather indices implementing shift_rows: out byte ``r + 4*c`` reads state
#: byte ``r + 4*((c + r) % 4)``, the same index arithmetic as `shift_rows`.
_SHIFT_ROWS_IDX = np.array(
    [(i % 4) + 4 * (((i // 4) + (i % 4)) % 4) for i in range(16)], dtype=np.intp
)


def _mix_columns_array(state: np.ndarray) -> np.ndarray:
    """MixColumns on a ``(..., 16)`` uint8 state array."""
    cols = state.reshape(*state.shape[:-1], 4, 4)  # [..., column, row]
    b0, b1, b2, b3 = (cols[..., 0], cols[..., 1], cols[..., 2], cols[..., 3])
    out = np.empty_like(cols)
    out[..., 0] = _MUL2_TABLE[b0] ^ _MUL3_TABLE[b1] ^ b2 ^ b3
    out[..., 1] = b0 ^ _MUL2_TABLE[b1] ^ _MUL3_TABLE[b2] ^ b3
    out[..., 2] = b0 ^ b1 ^ _MUL2_TABLE[b2] ^ _MUL3_TABLE[b3]
    out[..., 3] = _MUL3_TABLE[b0] ^ b1 ^ b2 ^ _MUL2_TABLE[b3]
    return out.reshape(state.shape)


def aes128_encrypt_blocks(key: bytes, blocks: np.ndarray) -> np.ndarray:
    """Encrypt a batch of 16-byte blocks with one key.

    Parameters
    ----------
    key:
        The 16-byte AES-128 key.
    blocks:
        ``uint8`` array of shape ``(..., 16)`` — e.g. ``(n_plaintexts, 16)``
        or ``(n_devices, n_plaintexts, 16)``.  The dtype is checked rather
        than coerced: silently casting wider integers would hide caller
        bugs.

    Returns
    -------
    ``uint8`` ciphertext array of the same shape; each 16-byte row equals
    ``AES128(key).encrypt_block`` on the corresponding plaintext row.
    """
    blocks = np.asarray(blocks)
    if blocks.dtype != np.uint8:
        raise ValueError(f"blocks must be uint8, got dtype {blocks.dtype}")
    if blocks.ndim < 1 or blocks.shape[-1] != 16:
        raise ValueError(f"blocks must have a trailing axis of 16, got shape {blocks.shape}")
    round_keys = np.array(expand_key(key), dtype=np.uint8)  # (11, 16)
    state = blocks ^ round_keys[0]
    for r in range(1, 10):
        state = _SBOX_TABLE[state]
        state = state[..., _SHIFT_ROWS_IDX]
        state = _mix_columns_array(state)
        state = state ^ round_keys[r]
    state = _SBOX_TABLE[state]
    state = state[..., _SHIFT_ROWS_IDX]
    return state ^ round_keys[10]
