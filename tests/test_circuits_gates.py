"""Gate delay model: structure checks and delay physics."""

import pytest

from repro.circuits.gates import Gate, inverter, nand2, nor2
from repro.circuits.mosfet import AlphaPowerMosfet, MosfetPolarity
from repro.process.parameters import nominal_350nm


@pytest.fixture()
def inv():
    return inverter()


def test_gate_polarity_is_enforced():
    n = AlphaPowerMosfet(MosfetPolarity.NMOS, width_um=4.0)
    p = AlphaPowerMosfet(MosfetPolarity.PMOS, width_um=8.0)
    with pytest.raises(ValueError, match="pull_down"):
        Gate(name="bad", pull_down=p, pull_up=p)
    with pytest.raises(ValueError, match="pull_up"):
        Gate(name="bad", pull_down=n, pull_up=n)


def test_standard_cells_construct():
    for gate in (inverter(), nand2(), nor2()):
        assert gate.input_capacitance_ff(nominal_350nm()) > 0


def test_delay_positive_and_increases_with_load(inv):
    params = nominal_350nm()
    d_small = inv.propagation_delay_ns(params, load_ff=5.0)
    d_large = inv.propagation_delay_ns(params, load_ff=50.0)
    assert 0 < d_small < d_large


def test_delay_rejects_negative_load(inv):
    with pytest.raises(ValueError):
        inv.propagation_delay_ns(nominal_350nm(), load_ff=-1.0)


def test_delay_is_average_of_edges(inv):
    params = nominal_350nm()
    rise = inv.edge_delay_ns(params, 10.0, "rise")
    fall = inv.edge_delay_ns(params, 10.0, "fall")
    assert inv.propagation_delay_ns(params, 10.0) == pytest.approx(0.5 * (rise + fall))


def test_edge_delay_rejects_unknown_edge(inv):
    with pytest.raises(ValueError, match="edge"):
        inv.edge_delay_ns(nominal_350nm(), 10.0, "sideways")


def test_faster_process_means_shorter_delay(inv):
    base = nominal_350nm()
    fast = base.perturbed({"vth_n": -0.02, "vth_p": -0.02, "mobility_n": 0.05,
                           "mobility_p": 0.05})
    assert inv.propagation_delay_ns(fast, 10.0) < inv.propagation_delay_ns(base, 10.0)


def test_more_parasitics_means_longer_delay(inv):
    base = nominal_350nm()
    loaded = base.perturbed({"cpar": 0.2})
    assert inv.propagation_delay_ns(loaded, 10.0) > inv.propagation_delay_ns(base, 10.0)


def test_gate_delay_plausible_magnitude(inv):
    # A 350 nm inverter driving a small fan-out: tens to hundreds of ps.
    delay = inv.propagation_delay_ns(nominal_350nm(), load_ff=15.0)
    assert 0.005 < delay < 1.0
