"""AES-128 core: FIPS-197 vectors, algebra, round operations, properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import (
    AES128,
    INV_SBOX,
    RCON,
    SBOX,
    expand_key,
    gf_inv,
    gf_mul,
    inv_mix_columns,
    inv_shift_rows,
    inv_sub_bytes,
    mix_columns,
    shift_rows,
    sub_bytes,
)

FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CIPHERTEXT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

# Appendix A of FIPS-197: expansion of the key 2b7e1516...
NIST_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
NIST_ROUND10 = bytes.fromhex("d014f9a8c9ee2589e13f0cc8b6630ca6")


class TestGaloisField:
    def test_multiplication_examples(self):
        # {57} x {83} = {c1} is the classic FIPS worked example.
        assert gf_mul(0x57, 0x83) == 0xC1
        assert gf_mul(0x57, 0x13) == 0xFE

    def test_multiplication_identity_and_zero(self):
        for a in (0x00, 0x01, 0x53, 0xFF):
            assert gf_mul(a, 1) == a
            assert gf_mul(a, 0) == 0

    def test_inverse_convention_for_zero(self):
        assert gf_inv(0) == 0

    @given(st.integers(min_value=1, max_value=255))
    def test_inverse_is_inverse(self, a):
        assert gf_mul(a, gf_inv(a)) == 1

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    )
    def test_multiplication_associative(self, a, b, c):
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))


class TestSbox:
    def test_known_entries(self):
        assert SBOX[0x00] == 0x63
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_sbox_is_a_permutation(self):
        assert sorted(SBOX) == list(range(256))

    def test_inverse_sbox_inverts(self):
        for x in range(256):
            assert INV_SBOX[SBOX[x]] == x

    def test_no_fixed_points(self):
        # The AES S-box has no fixed points and no 'opposite' fixed points.
        assert all(SBOX[x] != x for x in range(256))
        assert all(SBOX[x] != (x ^ 0xFF) for x in range(256))

    def test_rcon_values(self):
        assert RCON[:8] == [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80]
        assert RCON[8] == 0x1B
        assert RCON[9] == 0x36


class TestRoundOperations:
    def test_shift_rows_round_trip(self):
        state = list(range(16))
        assert inv_shift_rows(shift_rows(state)) == state

    def test_shift_rows_leaves_row_zero(self):
        state = list(range(16))
        shifted = shift_rows(state)
        assert [shifted[4 * c] for c in range(4)] == [state[4 * c] for c in range(4)]

    def test_mix_columns_round_trip(self):
        state = list(range(16))
        assert inv_mix_columns(mix_columns(state)) == state

    def test_mix_columns_known_column(self):
        # FIPS-197 test column: db 13 53 45 -> 8e 4d a1 bc.
        state = [0xDB, 0x13, 0x53, 0x45] + [0] * 12
        mixed = mix_columns(state)
        assert mixed[:4] == [0x8E, 0x4D, 0xA1, 0xBC]

    def test_sub_bytes_round_trip(self):
        state = list(range(16))
        assert inv_sub_bytes(sub_bytes(state)) == state


class TestKeyExpansion:
    def test_produces_11_round_keys(self):
        keys = expand_key(FIPS_KEY)
        assert len(keys) == 11
        assert all(len(k) == 16 for k in keys)

    def test_first_round_key_is_the_key(self):
        keys = expand_key(FIPS_KEY)
        assert bytes(keys[0]) == FIPS_KEY

    def test_nist_appendix_a_final_round_key(self):
        keys = expand_key(NIST_KEY)
        assert bytes(keys[10]) == NIST_ROUND10

    def test_rejects_wrong_key_size(self):
        with pytest.raises(ValueError):
            expand_key(b"short")


class TestCipher:
    def test_fips_vector_encrypt(self):
        assert AES128(FIPS_KEY).encrypt_block(FIPS_PLAINTEXT) == FIPS_CIPHERTEXT

    def test_fips_vector_decrypt(self):
        assert AES128(FIPS_KEY).decrypt_block(FIPS_CIPHERTEXT) == FIPS_PLAINTEXT

    def test_rejects_wrong_block_sizes(self):
        cipher = AES128(FIPS_KEY)
        with pytest.raises(ValueError):
            cipher.encrypt_block(b"too short")
        with pytest.raises(ValueError):
            cipher.decrypt_block(b"x" * 17)

    def test_key_property_returns_key(self):
        assert AES128(FIPS_KEY).key == FIPS_KEY

    @settings(max_examples=30)
    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    def test_encrypt_decrypt_round_trip(self, key, plaintext):
        cipher = AES128(key)
        assert cipher.decrypt_block(cipher.encrypt_block(plaintext)) == plaintext

    @settings(max_examples=20)
    @given(st.binary(min_size=16, max_size=16))
    def test_encryption_changes_the_block(self, plaintext):
        # AES is a permutation without fixed points for virtually all keys;
        # at minimum the FIPS key must not map these blocks to themselves.
        assert AES128(FIPS_KEY).encrypt_block(plaintext) != plaintext

    def test_different_keys_different_ciphertexts(self):
        other_key = bytes(x ^ 1 for x in FIPS_KEY)
        assert (
            AES128(FIPS_KEY).encrypt_block(FIPS_PLAINTEXT)
            != AES128(other_key).encrypt_block(FIPS_PLAINTEXT)
        )

    def test_avalanche_single_bit_flip(self):
        cipher = AES128(FIPS_KEY)
        base = cipher.encrypt_block(FIPS_PLAINTEXT)
        flipped = bytearray(FIPS_PLAINTEXT)
        flipped[0] ^= 0x01
        other = cipher.encrypt_block(bytes(flipped))
        differing_bits = sum(bin(a ^ b).count("1") for a, b in zip(base, other))
        # Expect roughly half of 128 bits to flip; accept a generous band.
        assert 40 <= differing_bits <= 90
