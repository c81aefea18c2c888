"""Foundry fabrication: operating point, lots, mismatch, model error."""

import numpy as np
import pytest

from repro.circuits.spicemodel import default_spice_deck
from repro.process.parameters import OperatingPointShift
from repro.silicon.foundry import Foundry


@pytest.fixture()
def deck():
    return default_spice_deck()


def _foundry(deck, **kwargs):
    defaults = dict(deck_nominal=deck.nominal, variation=deck.variation, seed=0)
    defaults.update(kwargs)
    return Foundry(**defaults)


class TestOperatingPoint:
    def test_no_shift_matches_deck(self, deck):
        assert _foundry(deck).operating_point == deck.nominal

    def test_drift_moves_operating_point(self, deck):
        foundry = _foundry(deck, shift=OperatingPointShift.typical_drift())
        assert foundry.operating_point.vth_n < deck.nominal.vth_n
        assert foundry.operating_point.mobility_n > deck.nominal.mobility_n


class TestFabrication:
    def test_rejects_nonpositive_counts(self, deck):
        with pytest.raises(ValueError):
            _foundry(deck).fabricate_lot(0)
        with pytest.raises(ValueError):
            _foundry(deck).fabricate(0)

    def test_lot_count_and_identity(self, deck):
        dies = _foundry(deck).fabricate_lot(10)
        assert len(dies) == 10
        assert len({die.site.label() for die in dies}) == 10

    def test_dies_in_one_lot_share_lot_component(self, deck):
        # Dies of one lot scatter around a common lot draw, so the between-lot
        # spread of lot means must exceed the within-lot standard error.
        foundry = _foundry(deck)
        lot_means = []
        for _ in range(8):
            dies = foundry.fabricate_lot(12)
            lot_means.append(np.mean([d.die_params.vth_n for d in dies]))
        within = np.std([d.die_params.vth_n for d in foundry.fabricate_lot(12)])
        assert np.std(lot_means) > within / np.sqrt(12) * 1.5

    def test_fabricate_makes_one_lot(self, deck):
        dies = _foundry(deck).fabricate(10)
        assert len(dies) == 10
        assert len({d.site.lot_id for d in dies}) == 1

    def test_fabrication_is_seeded(self, deck):
        a = _foundry(deck, seed=42).fabricate_lot(5)
        b = _foundry(deck, seed=42).fabricate_lot(5)
        assert [d.die_params for d in a] == [d.die_params for d in b]


class TestFabricatedDie:
    def test_structure_params_deterministic_per_name(self, deck):
        die = _foundry(deck).fabricate_lot(1)[0]
        assert die.structure_params("uwb_pa") == die.structure_params("uwb_pa")
        assert die.structure_params("uwb_pa") != die.structure_params("pcm.path")

    def test_structure_params_near_die_params(self, deck):
        die = _foundry(deck).fabricate_lot(1)[0]
        local = die.structure_params("uwb_pa")
        assert abs(local.vth_n / die.die_params.vth_n - 1.0) < 0.02

    def test_analog_model_error_applies_to_matching_structures(self, deck):
        error = {"uwb_pa": {"mobility_n": 0.10}}
        plain = _foundry(deck, seed=1).fabricate_lot(1)[0]
        skewed = _foundry(deck, seed=1, analog_model_error=error).fabricate_lot(1)[0]
        # Same mismatch seed stream -> the only difference is the error term.
        ratio = (
            skewed.structure_params("TF.uwb_pa").mobility_n
            / plain.structure_params("TF.uwb_pa").mobility_n
        )
        assert ratio == pytest.approx(1.10)
        # Non-matching structures are untouched.
        assert skewed.structure_params("pcm.path") == plain.structure_params("pcm.path")
