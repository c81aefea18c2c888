"""Static CMOS gate delay model built on the alpha-power MOSFET.

A gate's propagation delay follows the familiar CV/I form:

    t_p = 0.69 * C_load * V_dd / I_drive

where ``C_load`` combines fan-out gate capacitance and parasitic wiring
(scaled by the ``cpar`` process parameter), and ``I_drive`` is the weaker of
the pull-up / pull-down saturation currents for the worst-case transition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.mosfet import DEFAULT_VDD, AlphaPowerMosfet, MosfetPolarity
from repro.process.parameters import ProcessParameters

#: Effort factor mapping an RC product to a 50 % propagation delay.
DELAY_FACTOR = 0.69

#: Fixed wiring parasitic per gate output, in fF (scaled by cpar).
WIRE_CAP_FF = 12.0


@dataclass(frozen=True)
class Gate:
    """One static CMOS gate characterized by its pull-up/pull-down devices.

    Parameters
    ----------
    name:
        Gate type label (for reports).
    pull_down / pull_up:
        The equivalent NMOS / PMOS devices for the worst-case transition
        (series stacks are folded into an equivalent longer device).
    intrinsic_cap_ff:
        Self-loading (drain junctions) in fF at nominal ``cpar``.
    """

    name: str
    pull_down: AlphaPowerMosfet
    pull_up: AlphaPowerMosfet
    intrinsic_cap_ff: float = 3.0

    def __post_init__(self):
        if self.pull_down.polarity is not MosfetPolarity.NMOS:
            raise ValueError("pull_down device must be NMOS")
        if self.pull_up.polarity is not MosfetPolarity.PMOS:
            raise ValueError("pull_up device must be PMOS")

    def input_capacitance_ff(self, params: ProcessParameters) -> float:
        """Input capacitance presented to the previous stage, in fF."""
        return self.pull_down.input_capacitance_ff(params) + self.pull_up.input_capacitance_ff(
            params
        )

    def _total_cap_ff(self, params: ProcessParameters, load_ff: float) -> float:
        if np.any(np.asarray(load_ff) < 0):
            raise ValueError(f"load_ff must be non-negative, got {load_ff}")
        return load_ff + (self.intrinsic_cap_ff + WIRE_CAP_FF) * params.cpar

    def edge_delay_ns(
        self,
        params: ProcessParameters,
        load_ff: float,
        edge: str,
        vdd: float = DEFAULT_VDD,
    ) -> float:
        """Single-edge delay: ``"fall"`` uses the NMOS, ``"rise"`` the PMOS."""
        if edge == "fall":
            current = self.pull_down.saturation_current(params, vdd)
        elif edge == "rise":
            current = self.pull_up.saturation_current(params, vdd)
        else:
            raise ValueError(f"edge must be 'rise' or 'fall', got {edge!r}")
        total_cap_ff = self._total_cap_ff(params, load_ff)
        delay_s = DELAY_FACTOR * (total_cap_ff * 1e-15) * vdd / current
        return delay_s * 1e9

    def propagation_delay_ns(
        self,
        params: ProcessParameters,
        load_ff: float,
        vdd: float = DEFAULT_VDD,
    ) -> float:
        """Propagation delay t_p = (t_pLH + t_pHL) / 2, in nanoseconds.

        The standard mid-point definition: the average of the rising and
        falling output edges, so the delay senses both device polarities.
        The gate's own parasitics and the wiring load are added on top of
        the external ``load_ff``; both scale with the ``cpar`` process
        parameter.
        """
        rise = self.edge_delay_ns(params, load_ff, "rise", vdd=vdd)
        fall = self.edge_delay_ns(params, load_ff, "fall", vdd=vdd)
        return 0.5 * (rise + fall)


def inverter(width_n_um: float = 4.0, beta: float = 2.2) -> Gate:
    """A standard inverter; ``beta`` is the PMOS/NMOS width ratio."""
    return Gate(
        name="INV",
        pull_down=AlphaPowerMosfet(MosfetPolarity.NMOS, width_um=width_n_um),
        pull_up=AlphaPowerMosfet(MosfetPolarity.PMOS, width_um=width_n_um * beta),
    )


def nand2(width_n_um: float = 8.0, beta: float = 1.1) -> Gate:
    """A 2-input NAND; the series NMOS stack is folded to half-strength."""
    return Gate(
        name="NAND2",
        pull_down=AlphaPowerMosfet(MosfetPolarity.NMOS, width_um=width_n_um, length_um=0.70),
        pull_up=AlphaPowerMosfet(MosfetPolarity.PMOS, width_um=width_n_um * beta),
        intrinsic_cap_ff=4.5,
    )


def nor2(width_n_um: float = 4.0, beta: float = 4.4) -> Gate:
    """A 2-input NOR; the series PMOS stack is folded to half-strength."""
    return Gate(
        name="NOR2",
        pull_down=AlphaPowerMosfet(MosfetPolarity.NMOS, width_um=width_n_um),
        pull_up=AlphaPowerMosfet(MosfetPolarity.PMOS, width_um=width_n_um * beta, length_um=0.70),
        intrinsic_cap_ff=4.5,
    )
