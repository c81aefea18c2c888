"""Fundamental process parameters of the synthetic 350 nm technology.

The detection method never looks at these parameters directly — they are the
hidden state of the fab.  PCM structures and side-channel fingerprints are
both (different) functions of them, which is exactly why a PCM measurement
carries information about a chip's fingerprint without being influenced by a
Trojan.

The parameter set is deliberately compact but physically motivated:

==============  =======  =====================================================
name            unit     role
==============  =======  =====================================================
``vth_n``       V        NMOS threshold voltage (drive current, delay)
``vth_p``       V        PMOS threshold voltage (drive current, PA swing)
``mobility_n``  rel.     NMOS carrier mobility relative to nominal
``mobility_p``  rel.     PMOS carrier mobility relative to nominal
``tox``         nm       gate-oxide thickness (Cox, drive current)
``leff``        um       effective channel length (drive current, capacitance)
``cpar``        rel.     parasitic/wiring capacitance factor (delay, RF tuning)
==============  =======  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Sequence

import numpy as np

PARAMETER_NAMES = ("vth_n", "vth_p", "mobility_n", "mobility_p", "tox", "leff", "cpar")


@dataclass(frozen=True)
class ProcessParameters:
    """One realization of the fundamental process parameters.

    Instances are immutable; derived realizations (a die on a shifted lot, a
    local structure on a die) are produced with :meth:`perturbed` or
    :meth:`shifted`.
    """

    vth_n: float = 0.50
    vth_p: float = 0.58
    mobility_n: float = 1.00
    mobility_p: float = 1.00
    tox: float = 7.60
    leff: float = 0.35
    cpar: float = 1.00

    def perturbed(self, deltas: Dict[str, float]) -> "ProcessParameters":
        """Return a copy with additive ``deltas`` applied to named parameters."""
        unknown = set(deltas) - set(PARAMETER_NAMES)
        if unknown:
            raise ValueError(f"unknown process parameters: {sorted(unknown)}")
        updates = {name: getattr(self, name) + delta for name, delta in deltas.items()}
        return replace(self, **updates)

    def shifted(self, shift: "OperatingPointShift") -> "ProcessParameters":
        """Apply an operating-point shift (relative, per parameter)."""
        updates = {
            name: getattr(self, name) * (1.0 + shift.relative.get(name, 0.0))
            for name in PARAMETER_NAMES
        }
        return replace(self, **updates)

    def validate(self) -> "ProcessParameters":
        """Sanity-check physical plausibility; raise ``ValueError`` otherwise."""
        if not 0.1 <= self.vth_n <= 1.5 or not 0.1 <= self.vth_p <= 1.5:
            raise ValueError(f"threshold voltages out of range: {self.vth_n}, {self.vth_p}")
        if self.mobility_n <= 0 or self.mobility_p <= 0:
            raise ValueError("mobilities must be positive")
        if self.tox <= 0 or self.leff <= 0 or self.cpar <= 0:
            raise ValueError("tox, leff and cpar must be positive")
        return self


@dataclass(frozen=True)
class OperatingPointShift:
    """A systematic drift of the fab operating point, per parameter.

    ``relative['vth_n'] = -0.04`` means NMOS thresholds run 4 % low compared
    to the reference deck.  This models the paper's central obstacle: Spice
    decks are updated infrequently, so the simulated nominal disagrees with
    the silicon the foundry actually ships.
    """

    relative: Dict[str, float]

    def __post_init__(self):
        unknown = set(self.relative) - set(PARAMETER_NAMES)
        if unknown:
            raise ValueError(f"unknown process parameters in shift: {sorted(unknown)}")

    @classmethod
    def none(cls) -> "OperatingPointShift":
        """A no-op shift (silicon exactly matches the deck)."""
        return cls(relative={})

    @classmethod
    def typical_drift(cls, scale: float = 1.0) -> "OperatingPointShift":
        """A representative operating-point drift, scaled by ``scale``.

        ``scale = 1`` is a three-die-sigma move along the process *speed*
        direction (lower thresholds, higher mobility, thinner oxide — the
        line has been tuned for speed since the deck was frozen), plus the
        correlated back-end capacitance component.  Three sigmas defeats a
        simulation-only trusted region (boundaries B1/B2) while remaining a
        drift that PCM measurements can anchor: the parameter ratios match
        the speed factor of
        :func:`~repro.process.variation.default_variation_350nm`, so PCMs
        and fingerprints move consistently with their simulated relation.
        """
        return cls(
            relative={
                "vth_n": -0.051 * scale,
                "vth_p": -0.051 * scale,
                "mobility_n": +0.057 * scale,
                "mobility_p": +0.057 * scale,
                "tox": -0.022 * scale,
                "leff": -0.031 * scale,
                "cpar": +0.016 * scale,
            }
        )


def stack_parameters(realizations: Sequence[ProcessParameters]) -> ProcessParameters:
    """Stack realizations into one array-valued :class:`ProcessParameters`.

    The population engine (see :mod:`repro.process.population`) represents a
    whole device population as a single ``ProcessParameters`` whose fields
    are ``(n,)`` float arrays.  Because every compact-model expression in
    :mod:`repro.circuits` is a chain of elementwise ufuncs on these fields,
    the same code evaluates one die (scalar fields) or a population (array
    fields) with bit-identical per-element results.
    """
    realizations = list(realizations)
    if not realizations:
        raise ValueError("cannot stack an empty parameter sequence")
    fields = {
        name: np.array([getattr(p, name) for p in realizations], dtype=float)
        for name in PARAMETER_NAMES
    }
    return ProcessParameters(**fields)


def nominal_350nm() -> ProcessParameters:
    """The nominal operating point of the synthetic 350 nm technology."""
    return ProcessParameters().validate()
