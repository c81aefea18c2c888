"""Hierarchical process-variation model: lot → die → within-die.

Variation is decomposed the way fabs characterize it:

* **lot-to-lot** — slow drift of the line between fabrication lots;
* **die-to-die** — wafer-level gradients and die placement;
* **within-die (local)** — mismatch between structures on the same die.

Lot and die components are *correlated across parameters* through a common
"process speed" latent factor: a fast die has lower thresholds, higher
mobility and thinner oxide all at once.  This correlation is what makes a
PCM informative about a fingerprint at all — both respond to the shared
speed factor — and is standard fab behaviour (corner models move parameters
together).

The within-die component is pure mismatch (independent per parameter and per
structure).  It limits how much a PCM can tell us about a fingerprint: the
PCM path and the UWB power amplifier sit at different spots of the die, so
their local parameters are correlated (they share the die component) but not
identical.  That residual is why the paper's boundary B3 (built purely from
PCM-predicted fingerprints) is too tight and needs KDE tail enhancement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.process.parameters import PARAMETER_NAMES, ProcessParameters
from repro.utils.rng import SeedLike, as_generator


def _check_sigmas(sigmas: Dict[str, float], label: str) -> Dict[str, float]:
    unknown = set(sigmas) - set(PARAMETER_NAMES)
    if unknown:
        raise ValueError(f"unknown parameters in {label}: {sorted(unknown)}")
    for name, value in sigmas.items():
        if value < 0:
            raise ValueError(f"{label}[{name!r}] must be non-negative, got {value}")
    return dict(sigmas)


def _check_loadings(loadings: Dict[str, float]) -> Dict[str, float]:
    unknown = set(loadings) - set(PARAMETER_NAMES)
    if unknown:
        raise ValueError(f"unknown parameters in speed_loading: {sorted(unknown)}")
    for name, value in loadings.items():
        if not -1.0 <= value <= 1.0:
            raise ValueError(f"speed_loading[{name!r}] must be in [-1, 1], got {value}")
    return dict(loadings)


@dataclass(frozen=True)
class VariationModel:
    """Relative 1-sigma magnitudes for each variation component.

    All sigmas are *relative* to the current operating point value of the
    parameter (e.g. ``die_sigma['vth_n'] = 0.02`` means a 2 % die-to-die
    standard deviation on the NMOS threshold).

    Parameters
    ----------
    lot_sigma / die_sigma / within_die_sigma:
        Per-parameter relative sigmas of the three hierarchy levels.
    speed_loading:
        Correlation of each parameter with the latent process-speed factor,
        in [-1, 1].  A parameter's lot/die deviation decomposes as
        ``sigma * (loading * z_speed + sqrt(1 - loading^2) * z_own)``.
        The sign encodes the fast-process direction (fast = thresholds down,
        mobility up).  Within-die mismatch is always independent.
    """

    lot_sigma: Dict[str, float] = field(default_factory=dict)
    die_sigma: Dict[str, float] = field(default_factory=dict)
    within_die_sigma: Dict[str, float] = field(default_factory=dict)
    speed_loading: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        _check_sigmas(self.lot_sigma, "lot_sigma")
        _check_sigmas(self.die_sigma, "die_sigma")
        _check_sigmas(self.within_die_sigma, "within_die_sigma")
        _check_loadings(self.speed_loading)

    def _draw_correlated(self, base: ProcessParameters, sigmas: Dict[str, float],
                         rng: np.random.Generator) -> ProcessParameters:
        z_speed = rng.standard_normal()
        deltas = {}
        for name in PARAMETER_NAMES:
            sigma = sigmas.get(name, 0.0)
            if sigma <= 0.0:
                continue
            loading = self.speed_loading.get(name, 0.0)
            z = loading * z_speed + np.sqrt(1.0 - loading**2) * rng.standard_normal()
            deltas[name] = getattr(base, name) * sigma * z
        return base.perturbed(deltas)

    def _draw_independent(self, base: ProcessParameters, sigmas: Dict[str, float],
                          rng: np.random.Generator) -> ProcessParameters:
        deltas = {
            name: getattr(base, name) * sigmas.get(name, 0.0) * rng.standard_normal()
            for name in PARAMETER_NAMES
            if sigmas.get(name, 0.0) > 0.0
        }
        return base.perturbed(deltas)

    def active_names(self, sigmas: Dict[str, float]) -> List[str]:
        """Parameters with a strictly positive sigma, in draw order."""
        return [name for name in PARAMETER_NAMES if sigmas.get(name, 0.0) > 0.0]

    def correlated_draw_count(self, sigmas: Dict[str, float]) -> int:
        """Normal draws one correlated sample consumes: speed + one per active."""
        return 1 + len(self.active_names(sigmas))

    def independent_draw_count(self, sigmas: Dict[str, float]) -> int:
        """Normal draws one independent (mismatch) sample consumes."""
        return len(self.active_names(sigmas))

    def apply_correlated(self, base: ProcessParameters, sigmas: Dict[str, float],
                         z_speed: np.ndarray, z_own: np.ndarray) -> ProcessParameters:
        """Vectorized :meth:`sample_lot`/:meth:`sample_die` on pre-drawn normals.

        ``z_speed`` is the ``(n,)`` latent speed factor per device; ``z_own``
        is ``(n, k)`` with one column per :meth:`active_names` entry, in that
        order — exactly the draws the scalar path consumes per device.  The
        per-element arithmetic matches the scalar path operation for
        operation, so results are bitwise identical.
        """
        z_speed = np.asarray(z_speed, dtype=float)
        z_own = np.asarray(z_own, dtype=float)
        deltas = {}
        for column, name in enumerate(self.active_names(sigmas)):
            loading = self.speed_loading.get(name, 0.0)
            z = loading * z_speed + np.sqrt(1.0 - loading**2) * z_own[:, column]
            deltas[name] = getattr(base, name) * sigmas[name] * z
        return base.perturbed(deltas)

    def apply_independent(self, base: ProcessParameters, sigmas: Dict[str, float],
                          z: np.ndarray) -> ProcessParameters:
        """Vectorized :meth:`sample_structure` on pre-drawn ``(n, k)`` normals."""
        z = np.asarray(z, dtype=float)
        deltas = {
            name: getattr(base, name) * sigmas[name] * z[:, column]
            for column, name in enumerate(self.active_names(sigmas))
        }
        return base.perturbed(deltas)

    def sample_lot(self, operating_point: ProcessParameters,
                   rng: SeedLike = None) -> ProcessParameters:
        """Draw the lot-level parameter set around the fab operating point."""
        return self._draw_correlated(operating_point, self.lot_sigma, as_generator(rng))

    def sample_die(self, lot_params: ProcessParameters,
                   rng: SeedLike = None) -> ProcessParameters:
        """Draw one die's parameters around its lot."""
        return self._draw_correlated(lot_params, self.die_sigma, as_generator(rng))

    def sample_structure(self, die_params: ProcessParameters,
                         rng: SeedLike = None) -> ProcessParameters:
        """Draw the local parameters of one on-die structure (mismatch)."""
        return self._draw_independent(die_params, self.within_die_sigma, as_generator(rng))


def default_variation_350nm() -> VariationModel:
    """Variation magnitudes representative of a mature 350 nm process.

    Lot/die deviations are dominated by the common speed factor, as in
    typical fast/slow corner behaviour; ``cpar`` (back-end capacitance) is
    more loosely coupled to the front-end speed factor.
    """
    return VariationModel(
        lot_sigma={
            "vth_n": 0.015,
            "vth_p": 0.015,
            "mobility_n": 0.017,
            "mobility_p": 0.017,
            "tox": 0.007,
            "leff": 0.010,
            "cpar": 0.012,
        },
        die_sigma={
            "vth_n": 0.009,
            "vth_p": 0.009,
            "mobility_n": 0.010,
            "mobility_p": 0.010,
            "tox": 0.0045,
            "leff": 0.006,
            "cpar": 0.0075,
        },
        within_die_sigma={
            "vth_n": 0.002,
            "vth_p": 0.002,
            "mobility_n": 0.002,
            "mobility_p": 0.002,
            "tox": 0.001,
            "leff": 0.0015,
            "cpar": 0.002,
        },
        speed_loading={
            "vth_n": -0.97,
            "vth_p": -0.97,
            "mobility_n": +0.97,
            "mobility_p": +0.97,
            "tox": -0.94,
            "leff": -0.90,
            "cpar": +0.60,
        },
    )
