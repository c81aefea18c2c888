"""Production spec tests: Trojans pass the flow, gross defects do not."""

import pytest

from repro.circuits.spicemodel import default_spice_deck
from repro.crypto.bits import random_key
from repro.silicon.foundry import Foundry
from repro.testbed.chip import WirelessCryptoChip
from repro.testbed.spec import ProductionTest, SpecLimits
from repro.trojans.amplitude import AmplitudeModulationTrojan
from repro.trojans.frequency import FrequencyModulationTrojan


@pytest.fixture(scope="module")
def dies():
    deck = default_spice_deck()
    foundry = Foundry(deck_nominal=deck.nominal, variation=deck.variation, seed=0)
    return foundry.fabricate_lot(8)


@pytest.fixture(scope="module")
def key():
    return random_key(rng=0)


@pytest.fixture(scope="module")
def program(dies, key):
    reference = WirelessCryptoChip(die=dies[0], key=key)
    return ProductionTest.centered_on(reference, seed=1)


class TestSpecLimits:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpecLimits(power_low=2.0, power_high=1.0, freq_low_ghz=3.0, freq_high_ghz=5.0)
        with pytest.raises(ValueError):
            SpecLimits(power_low=1.0, power_high=2.0, freq_low_ghz=5.0, freq_high_ghz=3.0)

    def test_margin_validation(self, dies, key):
        reference = WirelessCryptoChip(die=dies[0], key=key)
        with pytest.raises(ValueError):
            ProductionTest.centered_on(reference, margin=1.5)
        with pytest.raises(ValueError):
            ProductionTest.centered_on(reference, freq_margin=0.0)


class TestProductionFlow:
    def test_clean_population_yields(self, program, dies, key):
        chips = [WirelessCryptoChip(die=die, key=key) for die in dies]
        assert all(program.run(chip).passed for chip in chips)

    def test_trojan_devices_pass(self, program, dies, key):
        for trojan in (AmplitudeModulationTrojan(depth=0.17),
                       FrequencyModulationTrojan(depth=0.17)):
            chips = [
                WirelessCryptoChip(die=die, key=key, trojan=trojan, version="T")
                for die in dies
            ]
            assert all(program.run(chip).passed for chip in chips)

    def test_wrong_key_fails_functional(self, program, dies):
        impostor = WirelessCryptoChip(die=dies[0], key=random_key(rng=99))
        result = program.run(impostor)
        assert not result.functional_pass
        assert not result.passed

    def test_gross_power_defect_fails(self, program, dies, key):
        # A PA driving far outside the margin (e.g. a short to a stronger
        # supply) must be caught by the parametric screen.
        class BrokenPaDie:
            def __init__(self, die):
                self._die = die

            def structure_params(self, structure):
                params = self._die.structure_params(structure)
                if "uwb_pa" in structure:
                    return params.perturbed({"mobility_n": 0.8})
                return params

            def label(self):
                return "broken"

        result = program.run(WirelessCryptoChip(die=BrokenPaDie(dies[0]), key=key))
        assert not result.power_pass
        assert not result.passed

    def test_detuned_oscillator_fails_frequency(self, program, dies, key):
        class DetunedDie:
            def __init__(self, die):
                self._die = die

            def structure_params(self, structure):
                params = self._die.structure_params(structure)
                if "uwb_shaper" in structure:
                    return params.perturbed({"cpar": 0.6})
                return params

            def label(self):
                return "detuned"

        result = program.run(WirelessCryptoChip(die=DetunedDie(dies[0]), key=key))
        assert not result.frequency_pass

    def test_result_fields(self, program, dies, key):
        result = program.run(WirelessCryptoChip(die=dies[1], key=key))
        assert result.passed
        assert result.power > 0
        assert result.frequency_ghz > 0
