"""The batched stream seeder against numpy's own seeding.

``seeded_generators`` mixes ``SeedSequence`` pools for many entropy rows at
once and re-seeds one shared PCG64 generator per row.  Every test here
compares it with what ``np.random.SeedSequence(row)`` and
``np.random.default_rng`` build one stream at a time: the pool, the
generator state and the draws must be identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.spicemodel import default_spice_deck
from repro.experiments.platformcfg import rf_model_error
from repro.process.parameters import PARAMETER_NAMES, stack_parameters
from repro.process.population import DiePopulation, sample_structure_params
from repro.utils.rng import (
    _seed_pools,
    seed_entropy,
    seed_entropy_groups,
    seeded_generators,
    spawn_entropy,
    structure_words,
)
from tests.oracles import parameters_at

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 2]
STRUCTURES = ["pcm.path_delay_ns", "TF.uwb_pa", "T2.uwb_shaper"]


def _rows(width, count=8, seed=0):
    """Random entropy rows, with the extreme words 0 and 2**32 - 1 planted."""
    rows = np.random.default_rng(seed).integers(
        0, 2**32, size=(count, width), dtype=np.uint64
    ).astype(np.uint32)
    if width:
        rows[0, 0] = 0
        rows[1, -1] = 2**32 - 1
    return rows


def _assert_streams_match(rows, references):
    """Each row's generator equals its reference generator, draw for draw."""
    count = 0
    for rng, ref in zip(seeded_generators(rows), references):
        assert rng.bit_generator.state == ref.bit_generator.state
        np.testing.assert_array_equal(rng.standard_normal(5), ref.standard_normal(5))
        assert rng.integers(0, 2**63 - 1) == ref.integers(0, 2**63 - 1)
        # A small range draws from a buffered uint32: the next row must not
        # inherit the buffered half.
        assert rng.integers(0, 10) == ref.integers(0, 10)
        assert rng.bit_generator.state == ref.bit_generator.state
        count += 1
    assert count == len(rows)


class TestPools:
    @pytest.mark.parametrize("width", range(0, 21))
    def test_pool_matches_seed_sequence(self, width):
        rows = _rows(width, seed=width)
        for row, pool in zip(rows, _seed_pools(rows)):
            np.testing.assert_array_equal(pool, np.random.SeedSequence(row).pool)


class TestSeededGenerators:
    @pytest.mark.parametrize("width", range(1, 21))
    def test_draws_match_default_rng(self, width):
        rows = _rows(width, seed=100 + width)
        _assert_streams_match(
            rows, [np.random.default_rng(np.random.SeedSequence(row)) for row in rows]
        )

    def test_one_generator_is_reseeded(self):
        rows = _rows(3)
        generators = {id(rng) for rng in seeded_generators(rows)}
        assert len(generators) == 1

    def test_no_rows_yield_nothing(self):
        assert list(seeded_generators(np.zeros((0, 3), dtype=np.uint32))) == []

    @pytest.mark.parametrize("entropy", [
        np.zeros(3, dtype=np.uint32),
        np.zeros((2, 3), dtype=np.int64),
    ])
    def test_rejects_other_shapes_and_types(self, entropy):
        with pytest.raises(ValueError, match="2-D uint32"):
            next(seeded_generators(entropy))


class TestSeedEntropyGroups:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_rows_match_list_entropy(self, seed):
        for name in STRUCTURES:
            words = structure_words(name)
            ((indices, rows),) = seed_entropy_groups(np.array([seed]), words)
            np.testing.assert_array_equal(indices, [0])
            np.testing.assert_array_equal(rows[0], seed_entropy(seed, words))
            _assert_streams_match(
                rows, [np.random.default_rng(np.random.SeedSequence([seed, *name.encode()]))]
            )

    def test_one_and_two_word_seeds_are_grouped(self):
        seeds = np.array([2**40, 0, 5, 2**63 - 2, 2**32 - 1, 2**32])
        words = structure_words("TF.uwb_pa")
        groups = list(seed_entropy_groups(seeds, words))
        assert [rows.shape[1] - words.size for _, rows in groups] == [1, 2]
        np.testing.assert_array_equal(groups[0][0], [1, 2, 4])
        np.testing.assert_array_equal(groups[1][0], [0, 3, 5])
        for indices, rows in groups:
            for i, row in zip(indices, rows):
                np.testing.assert_array_equal(row, seed_entropy(int(seeds[i]), words))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            list(seed_entropy_groups(np.array([3, -1]), structure_words("TF.uwb_pa")))


def _spawned_parents():
    nested = np.random.SeedSequence(5).spawn(3)[2].spawn(2)[1]
    advanced = np.random.SeedSequence(2**70 + 3)
    advanced.spawn(7)
    return {
        "small": np.random.SeedSequence(0),
        "above_2_64": np.random.SeedSequence(2**70 + 3),
        "above_2_128": np.random.SeedSequence(2**200 + 11),
        "nested_keys": nested,
        "already_spawned": advanced,
        "sequence_entropy": np.random.SeedSequence([1, 2**40, 3]),
        "array_entropy": np.random.SeedSequence(np.array([7, 8], dtype=np.uint32)),
    }


class TestSpawnEntropy:
    @pytest.mark.parametrize("name", sorted(_spawned_parents()))
    def test_rows_are_the_spawned_children(self, name):
        parent = _spawned_parents()[name]
        spawned = parent.n_children_spawned
        rows = spawn_entropy([parent], 5)
        assert parent.n_children_spawned == spawned  # not advanced
        children = parent.spawn(5)
        for pool, child in zip(_seed_pools(rows), children):
            np.testing.assert_array_equal(pool, child.pool)
        _assert_streams_match(rows, [np.random.default_rng(child) for child in children])

    def test_siblings_parent_major(self):
        seeds = np.random.SeedSequence(2**62 + 9).spawn(6)
        rows = spawn_entropy(seeds, 2)
        assert rows.shape[0] == 12
        children = [child for seed in seeds for child in seed.spawn(2)]
        _assert_streams_match(rows, [np.random.default_rng(child) for child in children])

    def test_zero_children(self):
        rows = spawn_entropy([np.random.SeedSequence(3)], 0)
        assert rows.shape == (0, 5)  # padded run entropy + child index

    def test_parents_of_different_widths_rejected(self):
        parents = [np.random.SeedSequence(1), np.random.SeedSequence(2**200)]
        with pytest.raises(ValueError, match="different lengths"):
            spawn_entropy(parents, 1)


class TestMixedWordPopulation:
    def test_structure_params_match_scalar_draws(self):
        deck = default_spice_deck()
        seeds = [0, 1, 2**32 - 1, 2**32, 2**63 - 2, 12345, 2**40 + 1]
        gen = np.random.default_rng(2)
        dies = [deck.sample_die(gen) for _ in seeds]
        error = rf_model_error(0.35)
        population = DiePopulation(
            die_params=stack_parameters(dies),
            mismatch_seeds=np.array(seeds, dtype=np.int64),
            variation=deck.variation,
            analog_model_error=error,
        )
        for structure in STRUCTURES:
            batched = population.structure_params(structure)
            for i, seed in enumerate(seeds):
                scalar = sample_structure_params(
                    deck.variation, dies[i], seed, structure, analog_model_error=error
                )
                extracted = parameters_at(batched, i)
                for name in PARAMETER_NAMES:
                    assert getattr(extracted, name) == getattr(scalar, name), (
                        structure, seed, name
                    )

    def test_negative_seed_rejected(self):
        deck = default_spice_deck()
        gen = np.random.default_rng(2)
        population = DiePopulation(
            die_params=stack_parameters([deck.sample_die(gen) for _ in range(2)]),
            mismatch_seeds=np.array([4, -1]),
            variation=deck.variation,
        )
        with pytest.raises(ValueError):
            population.structure_params("TF.uwb_pa")
