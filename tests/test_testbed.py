"""The wireless cryptographic IC and the measurement campaign."""

import numpy as np
import pytest

from repro.circuits.spicemodel import default_spice_deck
from repro.crypto.aes import AES128
from repro.crypto.bits import bytes_to_bits, random_key
from repro.process.parameters import nominal_350nm
from repro.silicon.foundry import Foundry
from repro.silicon.pcm import PCMSuite
from repro.testbed import campaign as campaign_module
from repro.testbed.campaign import FingerprintCampaign
from repro.testbed.chip import WirelessCryptoChip
from repro.testbed.serializer import SerializationBuffer
from repro.trojans.amplitude import AmplitudeModulationTrojan


class _StubDie:
    def structure_params(self, structure):
        return nominal_350nm()

    def label(self):
        return "stub"


class TestSerializer:
    def test_serializes_128_bits_msb_first(self):
        bits = SerializationBuffer().serialize(b"\x80" + b"\x00" * 15)
        assert bits.shape == (128,)
        assert bits[0] == 1
        assert bits[1:].sum() == 0

    def test_rejects_wrong_block_size(self):
        with pytest.raises(ValueError):
            SerializationBuffer().serialize(b"\x00" * 15)


class TestChip:
    def test_encrypt_matches_reference_aes(self):
        key = random_key(rng=0)
        chip = WirelessCryptoChip(die=_StubDie(), key=key)
        plaintext = b"\x42" * 16
        assert chip.encrypt(plaintext) == AES128(key).encrypt_block(plaintext)

    def test_functionality_unchanged_by_trojan(self):
        key = random_key(rng=0)
        clean = WirelessCryptoChip(die=_StubDie(), key=key)
        dirty = WirelessCryptoChip(
            die=_StubDie(), key=key, trojan=AmplitudeModulationTrojan(), version="T1"
        )
        plaintext = b"\x42" * 16
        assert clean.encrypt(plaintext) == dirty.encrypt(plaintext)

    def test_pulse_count_equals_ciphertext_weight(self):
        key = random_key(rng=0)
        chip = WirelessCryptoChip(die=_StubDie(), key=key)
        plaintext = b"\x11" * 16
        train = chip.transmit_plaintext(plaintext)
        assert len(train) == int(bytes_to_bits(chip.encrypt(plaintext)).sum())


class TestCampaign:
    def test_random_stimuli_shapes(self):
        campaign = FingerprintCampaign.random_stimuli(nm=6, seed=0)
        assert campaign.nm == 6
        assert campaign.np_dim == 1
        assert len(campaign.key) == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            FingerprintCampaign(key=b"short", plaintexts=[b"\x00" * 16])
        with pytest.raises(ValueError):
            FingerprintCampaign(key=b"\x00" * 16, plaintexts=[])
        with pytest.raises(ValueError):
            FingerprintCampaign(key=b"\x00" * 16, plaintexts=[b"short"])
        with pytest.raises(ValueError):
            FingerprintCampaign.random_stimuli(nm=0)

    def test_fingerprint_dimension_and_determinism(self):
        campaign = FingerprintCampaign.random_stimuli(nm=5, seed=1)
        chip = WirelessCryptoChip(die=_StubDie(), key=campaign.key)
        fp1 = campaign.fingerprint(chip)
        fp2 = campaign.fingerprint(chip)
        assert fp1.shape == (5,)
        np.testing.assert_array_equal(fp1, fp2)  # noise-free bench

    def test_noisy_bench_perturbs_fingerprint(self):
        campaign = FingerprintCampaign.random_stimuli(nm=4, seed=1)
        bench = campaign.silicon_bench(seed=2)
        chip = WirelessCryptoChip(die=_StubDie(), key=campaign.key)
        assert not np.array_equal(bench.fingerprint(chip), bench.fingerprint(chip))

    def test_silicon_bench_preserves_stimuli(self):
        campaign = FingerprintCampaign.random_stimuli(nm=4, seed=1)
        bench = campaign.silicon_bench(seed=2)
        assert bench.key == campaign.key
        assert bench.plaintexts == campaign.plaintexts

    def test_blocks_encrypted_once_per_campaign(self, monkeypatch):
        calls = []
        encrypt = campaign_module.aes128_encrypt_blocks

        def counting(key, blocks):
            calls.append(blocks.shape)
            return encrypt(key, blocks)

        monkeypatch.setattr(campaign_module, "aes128_encrypt_blocks", counting)
        deck = default_spice_deck()
        foundry = Foundry(deck_nominal=deck.nominal, variation=deck.variation, seed=0)
        dies = foundry.fabricate_lot(3)
        campaign = FingerprintCampaign.random_stimuli(nm=4, seed=1)
        bench = campaign.silicon_bench(seed=2)
        for target in (campaign, bench, campaign):
            target.measure_population(dies)
            target.measure_population(dies, trojan=AmplitudeModulationTrojan(), version="T1")
        assert calls == [(4, 16)]
        assert bench.cipher_bits is campaign.cipher_bits
        assert not campaign.cipher_bits.flags.writeable
        blocks = np.frombuffer(b"".join(campaign.plaintexts), dtype=np.uint8)
        expected = np.unpackbits(encrypt(campaign.key, blocks.reshape(4, 16)), axis=1)
        np.testing.assert_array_equal(campaign.cipher_bits, expected)

    def test_measure_device_labels_and_truth(self):
        deck = default_spice_deck()
        foundry = Foundry(deck_nominal=deck.nominal, variation=deck.variation, seed=0)
        die = foundry.fabricate_lot(1)[0]
        campaign = FingerprintCampaign.random_stimuli(nm=3, seed=1)
        clean = campaign.measure_device(die)
        dirty = campaign.measure_device(die, trojan=AmplitudeModulationTrojan(), version="T1")
        assert clean.infested is False and clean.trojan_name == "none"
        assert dirty.infested is True and "amplitude" in dirty.trojan_name
        assert clean.label.endswith("/TF") and dirty.label.endswith("/T1")
        assert clean.pcms.shape == (1,)

    def test_extended_pcm_suite_gives_two_readings(self):
        campaign = FingerprintCampaign.random_stimuli(
            nm=3, seed=1, pcm_suite=PCMSuite.extended()
        )
        deck = default_spice_deck()
        foundry = Foundry(deck_nominal=deck.nominal, variation=deck.variation, seed=0)
        die = foundry.fabricate_lot(1)[0]
        assert campaign.pcm_vector(die).shape == (2,)

    def test_measure_population(self):
        deck = default_spice_deck()
        foundry = Foundry(deck_nominal=deck.nominal, variation=deck.variation, seed=0)
        dies = foundry.fabricate_lot(4)
        campaign = FingerprintCampaign.random_stimuli(nm=3, seed=1)
        devices = campaign.measure_population(dies)
        assert len(devices) == 4

    def test_trojan_shifts_fingerprint(self):
        campaign = FingerprintCampaign.random_stimuli(nm=6, seed=1)
        die = _StubDie()
        clean = campaign.measure_device(die).fingerprint
        dirty = campaign.measure_device(
            die, trojan=AmplitudeModulationTrojan(depth=0.1), version="TF"
        ).fingerprint
        assert np.all(dirty > clean)  # amplitude boost raises every block power
