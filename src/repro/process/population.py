"""Array-of-devices representation for the batched population engine.

A :class:`DiePopulation` stores a whole population of dies as one
array-valued :class:`~repro.process.parameters.ProcessParameters` (each field
an ``(n,)`` float array) plus the per-die mismatch seeds.  Per-structure
local parameters are then evaluated for all dies at once.  The arithmetic
that turns the mismatch draws into parameters is vectorized, and so is the
seeding: the dies' entropy rows (seed words, then the structure name's
bytes, grouped by the seed's word count) are mixed into ``SeedSequence``
pools in a few array operations by :func:`~repro.utils.rng.seeded_generators`,
which re-seeds one generator per die.  What stays per die is setting that
generator's PCG64 state and drawing its normals; no seed sequence or
generator is built per (die, structure) pair.

The RNG stream contract shared with the scalar dies
(:class:`~repro.circuits.montecarlo.SimulatedDie`,
:class:`~repro.silicon.foundry.FabricatedDie`):

* per structure, one fresh generator seeded from the ``SeedSequence`` whose
  entropy is the ``uint32`` array of ``mismatch_seed``'s 32-bit words,
  lowest first, followed by the structure name's UTF-8 bytes — the array
  numpy builds from the list ``[mismatch_seed, *structure.encode()]``, so
  both seed the same pool (see :func:`structure_seed_sequence`);
* that generator yields one standard normal per *active* within-die
  parameter (sigma > 0), in ``PARAMETER_NAMES`` order;
* analog model error is applied after mismatch, as a relative shift.

:func:`sample_structure_params` is the scalar reference implementation of
this contract; both die classes delegate to it, so the contract lives in one
place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.process.parameters import ProcessParameters, stack_parameters
from repro.process.variation import VariationModel
from repro.utils.rng import (
    seed_entropy,
    seed_entropy_groups,
    seeded_generators,
    structure_words,
)


def structure_seed_sequence(mismatch_seed: int, structure: str) -> np.random.SeedSequence:
    """The per-(die, structure) seed: die seed mixed with the structure name.

    The scalar reference of the stream contract;
    :meth:`DiePopulation.structure_params` seeds from the same entropy rows
    without building it.  A negative seed raises ``ValueError``.
    """
    return np.random.SeedSequence(seed_entropy(mismatch_seed, structure_words(structure)))


def sample_structure_params(
    variation: VariationModel,
    die_params: ProcessParameters,
    mismatch_seed: int,
    structure: str,
    analog_model_error: Optional[Dict[str, Dict[str, float]]] = None,
) -> ProcessParameters:
    """Scalar reference draw of one structure's local parameters.

    This is the single definition of the per-structure RNG stream contract;
    the batched :meth:`DiePopulation.structure_params` mirrors it draw for
    draw.
    """
    rng = np.random.default_rng(structure_seed_sequence(mismatch_seed, structure))
    local = variation.sample_structure(die_params, rng)
    if analog_model_error:
        for key, shifts in analog_model_error.items():
            if key in structure:
                local = local.perturbed(
                    {name: getattr(local, name) * rel for name, rel in shifts.items()}
                )
    return local


@dataclass
class DiePopulation:
    """A population of dies as parallel arrays.

    Parameters
    ----------
    die_params:
        Array-valued :class:`ProcessParameters`; field ``i`` of every array
        belongs to die ``i``.
    mismatch_seeds:
        ``(n,)`` integer seeds, one per die, anchoring the per-structure
        mismatch streams.
    variation:
        The variation hierarchy shared by the population (one fab line).
    analog_model_error:
        Structure-keyed relative shifts shared by the population (a property
        of the design kit, not of a die); see
        :class:`~repro.silicon.foundry.FabricatedDie`.
    labels:
        Optional per-die report labels, aligned with the arrays.
    """

    die_params: ProcessParameters
    mismatch_seeds: np.ndarray
    variation: VariationModel
    analog_model_error: Dict[str, Dict[str, float]] = field(default_factory=dict)
    labels: List[str] = field(default_factory=list)
    _structure_cache: Dict[str, ProcessParameters] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.mismatch_seeds = np.asarray(self.mismatch_seeds, dtype=np.int64)
        if self.mismatch_seeds.ndim != 1 or self.mismatch_seeds.shape[0] == 0:
            raise ValueError(
                f"mismatch_seeds must be a non-empty 1-D array, got shape "
                f"{self.mismatch_seeds.shape}"
            )
        if self.labels and len(self.labels) != len(self):
            raise ValueError(
                f"{len(self.labels)} labels for {len(self)} dies"
            )

    def __len__(self) -> int:
        return int(self.mismatch_seeds.shape[0])

    @classmethod
    def from_dies(cls, dies: Sequence) -> "DiePopulation":
        """Stack scalar dies (simulated or fabricated) into one population.

        Accepts any sequence of objects with ``die_params``, ``mismatch_seed``
        and ``label()``, plus either a ``variation`` attribute
        (:class:`~repro.silicon.foundry.FabricatedDie`) or a ``deck``
        carrying one (:class:`~repro.circuits.montecarlo.SimulatedDie`).
        The population must be homogeneous: every die shares the first die's
        variation model and analog model error (true of every population the
        library fabricates or simulates).
        """
        dies = list(dies)
        if not dies:
            raise ValueError("cannot build a population from zero dies")
        first = dies[0]
        variation = getattr(first, "variation", None)
        if variation is None:
            variation = first.deck.variation
        return cls(
            die_params=stack_parameters([die.die_params for die in dies]),
            mismatch_seeds=np.array([die.mismatch_seed for die in dies], dtype=np.int64),
            variation=variation,
            analog_model_error=dict(getattr(first, "analog_model_error", {}) or {}),
            labels=[die.label() for die in dies],
        )

    def structure_params(self, structure: str) -> ProcessParameters:
        """Local mismatch parameters of one structure across all dies.

        Returns an array-valued :class:`ProcessParameters` whose element
        ``i`` is bitwise identical to
        ``sample_structure_params(..., mismatch_seeds[i], structure, ...)``.
        """
        if structure not in self._structure_cache:
            sigmas = self.variation.within_die_sigma
            draws = self.variation.independent_draw_count(sigmas)
            z = np.empty((len(self), draws), dtype=float)
            groups = seed_entropy_groups(self.mismatch_seeds, structure_words(structure))
            for indices, rows in groups:
                for i, rng in zip(indices.tolist(), seeded_generators(rows)):
                    rng.standard_normal(out=z[i])
            local = self.variation.apply_independent(self.die_params, sigmas, z)
            for key, shifts in self.analog_model_error.items():
                if key in structure:
                    local = local.perturbed(
                        {name: getattr(local, name) * rel for name, rel in shifts.items()}
                    )
            self._structure_cache[structure] = local
        return self._structure_cache[structure]

    def label(self, index: int) -> str:
        """Report label of die ``index``."""
        if self.labels:
            return self.labels[index]
        return f"die{index}"
