"""Spice deck sampling and the Monte Carlo engine."""

import numpy as np
import pytest

from repro.circuits.montecarlo import MonteCarloEngine, MonteCarloResult, SimulatedDie
from repro.circuits.spicemodel import default_spice_deck
from repro.testbed.campaign import FingerprintCampaign


@pytest.fixture()
def deck():
    return default_spice_deck()


@pytest.fixture()
def sim_campaign():
    return FingerprintCampaign.random_stimuli(nm=4, seed=0)


class TestSpiceDeck:
    def test_sample_die_varies(self, deck):
        a = deck.sample_die(0)
        b = deck.sample_die(1)
        assert a != b

    def test_sample_die_deterministic(self, deck):
        assert deck.sample_die(3) == deck.sample_die(3)

    def test_samples_center_on_nominal(self, deck):
        rng = np.random.default_rng(0)
        values = np.array([deck.sample_die(rng).vth_n for _ in range(400)])
        assert values.mean() == pytest.approx(deck.nominal.vth_n, rel=0.01)


class TestSimulatedDie:
    def test_structure_params_cached_and_deterministic(self, deck):
        die = SimulatedDie(index=0, die_params=deck.nominal, deck=deck, mismatch_seed=42)
        first = die.structure_params("uwb_pa")
        assert die.structure_params("uwb_pa") is first

        clone = SimulatedDie(index=0, die_params=deck.nominal, deck=deck, mismatch_seed=42)
        assert clone.structure_params("uwb_pa") == first

    def test_different_structures_differ(self, deck):
        die = SimulatedDie(index=0, die_params=deck.nominal, deck=deck, mismatch_seed=42)
        assert die.structure_params("uwb_pa") != die.structure_params("pcm.path")

    def test_label(self, deck):
        assert SimulatedDie(3, deck.nominal, deck, 0).label() == "MC3"


class TestEngine:
    def test_rejects_noisy_campaign(self, deck):
        noisy = FingerprintCampaign.random_stimuli(nm=4, seed=0).silicon_bench(seed=1)
        with pytest.raises(ValueError, match="noise-free"):
            MonteCarloEngine(deck, noisy)

    def test_rejects_negative_noise(self, deck, sim_campaign):
        with pytest.raises(ValueError):
            MonteCarloEngine(deck, sim_campaign, numerical_noise=-0.1)

    def test_run_shapes(self, deck, sim_campaign):
        result = MonteCarloEngine(deck, sim_campaign).run(15, seed=1)
        assert result.pcms.shape == (15, 1)
        assert result.fingerprints.shape == (15, 4)
        assert result.n_devices == 15

    def test_run_rejects_nonpositive_n(self, deck, sim_campaign):
        with pytest.raises(ValueError):
            MonteCarloEngine(deck, sim_campaign).run(0)

    def test_run_is_deterministic(self, deck, sim_campaign):
        engine = MonteCarloEngine(deck, sim_campaign)
        a = engine.run(10, seed=5)
        b = engine.run(10, seed=5)
        np.testing.assert_array_equal(a.fingerprints, b.fingerprints)

    def test_numerical_noise_perturbs_readings(self, deck, sim_campaign):
        clean = MonteCarloEngine(deck, sim_campaign).run(10, seed=5)
        noisy = MonteCarloEngine(deck, sim_campaign, numerical_noise=0.01).run(10, seed=5)
        rel = np.abs(noisy.fingerprints / clean.fingerprints - 1.0)
        assert rel.max() < 0.1
        assert rel.mean() > 1e-4

    def test_result_validates_row_mismatch(self):
        with pytest.raises(ValueError):
            MonteCarloResult(pcms=np.zeros((3, 1)), fingerprints=np.zeros((4, 6)))
