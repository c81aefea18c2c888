"""Population engine: bit-identity against the per-die loop oracle.

The contract of the population engine is *exactness*: for every campaign
configuration, ``measure_population`` and ``MonteCarloEngine.run`` must
reproduce the scalar chain of :mod:`tests.oracles` bit for bit — same AES
ciphertexts, same mismatch draws, same analog model floats, same
instrument-noise streams.  These tests pin that contract across all three
design versions (TF + both Trojans), noise-free and noisy benches, a
fixed-gain channel, the Monte Carlo engine, and the full synthetic
experiment, plus a property test of the vectorized AES against the scalar
FIPS-197 reference.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.montecarlo import MonteCarloEngine, sample_device_population
from repro.circuits.spicemodel import default_spice_deck
from repro.crypto.aes import AES128, aes128_encrypt_blocks
from repro.experiments.platformcfg import (
    generate_experiment_data,
    rf_model_error,
)
from repro.process.parameters import PARAMETER_NAMES, OperatingPointShift
from repro.process.population import DiePopulation, structure_seed_sequence
from repro.rf.channel import AwgnChannel
from repro.silicon.foundry import Foundry
from repro.silicon.instruments import DelayAnalyzer, PowerMeter
from repro.testbed.campaign import FingerprintCampaign
from repro.trojans.amplitude import AmplitudeModulationTrojan
from repro.trojans.frequency import FrequencyModulationTrojan
from repro.utils.rng import spawn_entropy
from tests.conftest import small_platform
from tests.oracles import measure_population_loop, monte_carlo_loop, parameters_at

VERSION_SWEEP = [
    (None, "TF"),
    (AmplitudeModulationTrojan(depth=0.02), "T1"),
    (FrequencyModulationTrojan(depth=0.03), "T2"),
]


def _paper_foundry(seed=0):
    deck = default_spice_deck()
    return Foundry(
        deck_nominal=deck.nominal,
        variation=deck.variation,
        shift=OperatingPointShift.typical_drift(),
        analog_model_error=rf_model_error(0.35),
        seed=seed,
    )


def _assert_device_lists_equal(batched, loop):
    assert len(batched) == len(loop)
    for b, l in zip(batched, loop):
        assert b.label == l.label
        assert b.infested == l.infested
        assert b.trojan_name == l.trojan_name
        np.testing.assert_array_equal(b.pcms, l.pcms)
        np.testing.assert_array_equal(b.fingerprint, l.fingerprint)


@pytest.fixture(scope="module")
def fabricated_dies():
    return _paper_foundry(seed=3).fabricate(10)


class TestCampaignEngineBitIdentity:
    """measure_population == the per-die loop, per version, per bench."""

    @pytest.mark.parametrize("trojan,version", VERSION_SWEEP,
                             ids=[v for _, v in VERSION_SWEEP])
    def test_noise_free_bench(self, fabricated_dies, trojan, version):
        campaign = FingerprintCampaign.random_stimuli(nm=6, seed=11)
        loop = measure_population_loop(
            campaign, fabricated_dies, trojan=trojan, version=version
        )
        batched = campaign.measure_population(
            fabricated_dies, trojan=trojan, version=version
        )
        _assert_device_lists_equal(batched, loop)

    def test_noisy_bench_full_sweep(self, fabricated_dies):
        # instrument_root.spawn is stateful (each population consumes fresh
        # per-device seeds in call order), so compare two identically seeded
        # benches each running the whole TF+T1+T2 sweep.
        base = FingerprintCampaign.random_stimuli(nm=6, seed=11)
        loop_bench = base.silicon_bench(seed=99)
        batched_bench = base.silicon_bench(seed=99)
        loop, batched = [], []
        for trojan, version in VERSION_SWEEP:
            loop.extend(measure_population_loop(
                loop_bench, fabricated_dies, trojan=trojan, version=version
            ))
            batched.extend(batched_bench.measure_population(
                fabricated_dies, trojan=trojan, version=version
            ))
        _assert_device_lists_equal(batched, loop)

    @pytest.mark.parametrize("instrument", ["power_meter", "delay_analyzer"])
    def test_single_instrument_bench(self, fabricated_dies, instrument):
        # A bench with one instrument seeds only that instrument's streams,
        # still each device's own spawned child (power 0, delay 1).
        base = FingerprintCampaign.random_stimuli(nm=6, seed=11)
        benches = []
        for _ in range(2):
            bench = base.silicon_bench(seed=99)
            benches.append(dataclasses.replace(bench, **{instrument: None}))
        loop = measure_population_loop(benches[0], fabricated_dies, version="TF")
        batched = benches[1].measure_population(fabricated_dies, version="TF")
        _assert_device_lists_equal(batched, loop)

    def test_shared_population_full_sweep(self, fabricated_dies):
        # One DiePopulation measured as TF, T1 and T2 (as the platform
        # measures a lot) equals three calls on the dies list; the instrument
        # streams are still spawned per call, in sweep order.
        base = FingerprintCampaign.random_stimuli(nm=6, seed=11)
        list_bench = base.silicon_bench(seed=99)
        shared_bench = base.silicon_bench(seed=99)
        loop_bench = base.silicon_bench(seed=99)
        population = DiePopulation.from_dies(fabricated_dies)
        from_list, shared, loop = [], [], []
        for trojan, version in VERSION_SWEEP:
            from_list.extend(list_bench.measure_population(
                fabricated_dies, trojan=trojan, version=version
            ))
            shared.extend(shared_bench.measure_population(
                population, trojan=trojan, version=version
            ))
            loop.extend(measure_population_loop(
                loop_bench, population, trojan=trojan, version=version
            ))
        _assert_device_lists_equal(shared, from_list)
        _assert_device_lists_equal(shared, loop)

    def test_noisy_bench_single_population(self, fabricated_dies):
        campaign = FingerprintCampaign.random_stimuli(nm=4, seed=2)
        loop = measure_population_loop(
            campaign.silicon_bench(seed=7), fabricated_dies
        )
        batched = campaign.silicon_bench(seed=7).measure_population(fabricated_dies)
        _assert_device_lists_equal(batched, loop)

    def test_fixed_gain_channel_is_batchable(self, fabricated_dies):
        campaign = FingerprintCampaign.random_stimuli(nm=4, seed=5)
        campaign.channel = AwgnChannel(path_gain=0.8)
        loop = measure_population_loop(campaign, fabricated_dies)
        batched = campaign.measure_population(fabricated_dies)
        _assert_device_lists_equal(batched, loop)
        plain = FingerprintCampaign.random_stimuli(nm=4, seed=5)
        assert not np.array_equal(
            batched[0].fingerprint, plain.measure_population(fabricated_dies)[0].fingerprint
        )

    def test_shared_stream_bench_rejected(self, fabricated_dies):
        # Instruments without per-device streams would make the noise a
        # device sees depend on measurement order.
        campaign = FingerprintCampaign.random_stimuli(nm=4, seed=8)
        shared = FingerprintCampaign(
            key=campaign.key,
            plaintexts=campaign.plaintexts,
            power_meter=PowerMeter(seed=0),
            delay_analyzer=DelayAnalyzer(seed=1),
        )
        with pytest.raises(ValueError, match="silicon_bench"):
            shared.measure_population(fabricated_dies)

    def test_empty_population(self):
        campaign = FingerprintCampaign.random_stimuli(nm=4, seed=8)
        assert campaign.silicon_bench(seed=1).measure_population([]) == []


class TestMonteCarloEngineBitIdentity:
    def _engine(self, nm=6, seed=0, noise=0.0015, channel=None):
        campaign = FingerprintCampaign.random_stimuli(nm=nm, seed=seed)
        campaign.channel = channel
        return MonteCarloEngine(default_spice_deck(), campaign,
                                numerical_noise=noise)

    def _assert_runs_equal(self, engine, n, seed):
        loop = monte_carlo_loop(engine, n, seed=seed)
        batched = engine.run(n, seed=seed)
        np.testing.assert_array_equal(batched.pcms, loop.pcms)
        np.testing.assert_array_equal(batched.fingerprints, loop.fingerprints)

    def test_batched_matches_loop(self):
        self._assert_runs_equal(self._engine(), 24, seed=42)

    def test_batched_matches_loop_noise_free(self):
        self._assert_runs_equal(self._engine(noise=0.0), 16, seed=9)

    def test_fixed_gain_channel(self):
        self._assert_runs_equal(
            self._engine(channel=AwgnChannel(path_gain=1.2)), 8, seed=4
        )

    def test_population_matches_scalar_dies(self):
        # sample_device_population consumes each per-device stream in the
        # scalar order, so the stacked die parameters and mismatch seeds are
        # bitwise the loop's.  Its rows are the spawned children's entropy.
        engine = self._engine()
        seeds = np.random.SeedSequence(77).spawn(6)
        population = sample_device_population(
            engine.deck, spawn_entropy([np.random.SeedSequence(77)], 6)
        )
        for i, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            die = engine.deck.sample_die(rng)
            assert population.label(i) == f"MC{i}"
            scalar = parameters_at(population.die_params, i)
            for name in PARAMETER_NAMES:
                assert getattr(scalar, name) == getattr(die, name)
            assert int(population.mismatch_seeds[i]) == int(
                rng.integers(0, 2**63 - 1)
            )


class TestExperimentEngineBitIdentity:
    def test_full_synthetic_experiment(self, monkeypatch):
        config = small_platform(n_chips=8, n_monte_carlo=20)
        batched = generate_experiment_data(config)
        monkeypatch.setattr(MonteCarloEngine, "run", monte_carlo_loop)
        monkeypatch.setattr(FingerprintCampaign, "measure_population",
                            measure_population_loop)
        loop = generate_experiment_data(config)
        np.testing.assert_array_equal(batched.sim_pcms, loop.sim_pcms)
        np.testing.assert_array_equal(
            batched.sim_fingerprints, loop.sim_fingerprints
        )
        np.testing.assert_array_equal(batched.dutt_pcms, loop.dutt_pcms)
        np.testing.assert_array_equal(
            batched.dutt_fingerprints, loop.dutt_fingerprints
        )
        np.testing.assert_array_equal(batched.infested, loop.infested)
        assert batched.trojan_names == loop.trojan_names


class TestDiePopulation:
    def test_structure_params_match_scalar_dies(self, fabricated_dies):
        population = DiePopulation.from_dies(fabricated_dies)
        assert len(population) == len(fabricated_dies)
        for structure in ("pcm.path_delay", "TF.uwb_pa", "T1.uwb_shaper"):
            batched = population.structure_params(structure)
            for i, die in enumerate(fabricated_dies):
                scalar = die.structure_params(structure)
                extracted = parameters_at(batched, i)
                for name in PARAMETER_NAMES:
                    assert getattr(extracted, name) == getattr(scalar, name), (
                        structure, i, name
                    )

    def test_labels_follow_dies(self, fabricated_dies):
        population = DiePopulation.from_dies(fabricated_dies)
        for i, die in enumerate(fabricated_dies):
            assert population.label(i) == die.label()

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError, match="zero dies"):
            DiePopulation.from_dies([])


@pytest.fixture(scope="module")
def platform_structures():
    """Every structure name a platform run draws mismatch for."""
    names = set()
    draw = DiePopulation.structure_params

    def recording(population, structure):
        names.add(structure)
        return draw(population, structure)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DiePopulation, "structure_params", recording)
        generate_experiment_data(small_platform(n_chips=4, n_monte_carlo=10))
    return sorted(names)


class TestStructureSeedSequence:
    """The pre-encoded entropy seeds the pool numpy builds from the list."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 2])
    def test_matches_list_entropy(self, platform_structures, seed):
        assert "pcm.path_delay_ns" in platform_structures
        for name in platform_structures:
            expected = np.random.SeedSequence([seed, *name.encode()])
            np.testing.assert_array_equal(
                structure_seed_sequence(seed, name).generate_state(4, np.uint64),
                expected.generate_state(4, np.uint64),
            )

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            structure_seed_sequence(-1, "pcm.path_delay_ns")


class TestBatchedAes:
    """The vectorized AES must equal the scalar FIPS-197 reference bitwise."""

    def test_fips_vector(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        blocks = np.frombuffer(plaintext, dtype=np.uint8).reshape(1, 16)
        out = aes128_encrypt_blocks(key, blocks)
        assert out.tobytes() == expected

    @settings(max_examples=25, deadline=None)
    @given(
        key=st.binary(min_size=16, max_size=16),
        blocks=st.lists(st.binary(min_size=16, max_size=16), min_size=1,
                        max_size=8),
    )
    def test_matches_scalar_reference(self, key, blocks):
        array = np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(-1, 16)
        out = aes128_encrypt_blocks(key, array)
        scalar = AES128(key)
        assert out.shape == array.shape
        assert out.dtype == np.uint8
        for row, block in zip(out, blocks):
            assert row.tobytes() == scalar.encrypt_block(block)

    def test_device_axis_broadcast(self):
        # (n_devices, n_plaintexts, 16): every device sees the same key, so
        # all device rows agree with the 2-D encryption of the same blocks.
        rng = np.random.default_rng(0)
        key = rng.bytes(16)
        blocks = rng.integers(0, 256, size=(6, 16), dtype=np.uint8)
        stacked = np.broadcast_to(blocks, (5, 6, 16)).copy()
        out3 = aes128_encrypt_blocks(key, stacked)
        out2 = aes128_encrypt_blocks(key, blocks)
        for device_row in out3:
            np.testing.assert_array_equal(device_row, out2)

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError, match="uint8"):
            aes128_encrypt_blocks(b"\x00" * 16,
                                  np.zeros((2, 16), dtype=np.int64))

    def test_rejects_wrong_trailing_axis(self):
        with pytest.raises(ValueError, match="trailing axis"):
            aes128_encrypt_blocks(b"\x00" * 16,
                                  np.zeros((2, 8), dtype=np.uint8))

    def test_input_blocks_untouched(self):
        rng = np.random.default_rng(1)
        key = rng.bytes(16)
        blocks = rng.integers(0, 256, size=(4, 16), dtype=np.uint8)
        before = blocks.copy()
        aes128_encrypt_blocks(key, blocks)
        np.testing.assert_array_equal(blocks, before)
