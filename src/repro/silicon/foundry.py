"""The (untrusted) foundry: fabricates die populations at its operating point.

The foundry's operating point is the deck nominal plus an
:class:`~repro.process.parameters.OperatingPointShift` — the drift accumulated
since the Spice model was frozen.  Fabrication applies the full variation
hierarchy (lot → die → within-die), and each fabricated die exposes
deterministic per-structure local parameters so that the PCM path, the PA
and the pulse shaper on one die are correlated but not identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.process.parameters import OperatingPointShift, ProcessParameters
from repro.process.population import sample_structure_params
from repro.process.variation import VariationModel
from repro.process.wafer import DieSite, Lot
from repro.utils.rng import SeedLike, as_generator


@dataclass
class FabricatedDie:
    """One fabricated die: identity, die-level parameters, local mismatch.

    Per-structure local parameters are derived lazily and deterministically
    from the die's mismatch seed, so the same die always yields the same
    local parameters for a given structure name.

    ``analog_model_error`` captures systematic silicon-vs-model discrepancy
    of specific structures: compact models track simple digital structures
    (gates, PCM paths) well, but large RF layouts (power amplifier, pulse
    shaper) suffer extraction error, so their effective silicon parameters
    deviate from *any* simulation at the same process point.  Keys are
    substrings of structure names; values are relative parameter shifts.
    """

    site: DieSite
    die_params: ProcessParameters
    variation: VariationModel
    mismatch_seed: int
    analog_model_error: Dict[str, Dict[str, float]] = field(default_factory=dict)
    _structure_cache: Dict[str, ProcessParameters] = field(default_factory=dict, repr=False)

    def structure_params(self, structure: str) -> ProcessParameters:
        """Local process parameters of the named on-die structure.

        Delegates to :func:`~repro.process.population.sample_structure_params`
        — the single definition of the per-(die, structure) RNG stream
        contract shared with the batched population engine.
        """
        if structure not in self._structure_cache:
            self._structure_cache[structure] = sample_structure_params(
                self.variation,
                self.die_params,
                self.mismatch_seed,
                structure,
                analog_model_error=self.analog_model_error,
            )
        return self._structure_cache[structure]

    def label(self) -> str:
        """Human-readable die identifier."""
        return self.site.label()


@dataclass
class Foundry:
    """Fabricates virtual silicon at a (possibly drifted) operating point.

    Parameters
    ----------
    deck_nominal:
        The process nominal the trusted Spice deck believes in.
    shift:
        Operating-point drift of the actual line relative to the deck.
    variation:
        The variation hierarchy of the line.
    analog_model_error:
        Structure-specific silicon-vs-model discrepancy (see
        :class:`FabricatedDie`); applied identically to every fabricated
        die, because it is a property of the design kit, not of a die.
    seed:
        Seed or generator controlling all fabrication randomness.
    """

    deck_nominal: ProcessParameters
    variation: VariationModel
    shift: OperatingPointShift = field(default_factory=OperatingPointShift.none)
    analog_model_error: Dict[str, Dict[str, float]] = field(default_factory=dict)
    seed: SeedLike = None

    def __post_init__(self):
        self._rng = as_generator(self.seed)
        self._next_lot_id = 0

    @property
    def operating_point(self) -> ProcessParameters:
        """The silicon nominal: deck nominal plus accumulated drift."""
        return self.deck_nominal.shifted(self.shift)

    def fabricate_lot(
        self,
        n_dies: int,
        n_wafers: int = 1,
        lot: Optional[Lot] = None,
    ) -> List[FabricatedDie]:
        """Fabricate ``n_dies`` dies spread over ``n_wafers`` wafers of one lot.

        All dies share one lot-level parameter draw — matching the paper's
        observation that a DUTT population from a single lot covers only a
        narrow slice of the process distribution.
        """
        if n_dies <= 0:
            raise ValueError(f"n_dies must be positive, got {n_dies}")
        if lot is None:
            per_wafer = -(-n_dies // n_wafers)  # ceil division
            cols = max(1, int(np.ceil(np.sqrt(per_wafer))))
            rows = -(-per_wafer // cols)
            lot = Lot.with_wafers(self._next_lot_id, n_wafers, rows=rows, cols=cols)
        self._next_lot_id += 1

        sites = lot.sites()
        if len(sites) < n_dies:
            raise ValueError(
                f"lot provides {len(sites)} sites but {n_dies} dies were requested"
            )

        lot_params = self.variation.sample_lot(self.operating_point, self._rng)
        dies = []
        for site in sites[:n_dies]:
            die_params = self.variation.sample_die(lot_params, self._rng)
            mismatch_seed = int(self._rng.integers(0, 2**63 - 1))
            dies.append(
                FabricatedDie(
                    site=site,
                    die_params=die_params,
                    variation=self.variation,
                    mismatch_seed=mismatch_seed,
                    analog_model_error=self.analog_model_error,
                )
            )
        return dies

    def fabricate(self, n_dies: int) -> List[FabricatedDie]:
        """Fabricate ``n_dies`` dies in one new lot.

        The experiment platform fabricates through this name; the traced
        repo benchmark (``perfbench``) times platform synthesis by wrapping it.
        """
        return self.fabricate_lot(n_dies)
