"""Golden values of the display lot: exact data digests and Table-1 counts.

The integration tests bound Table 1 loosely; these pin it exactly, so a
silent stream re-roll or a numerics change anywhere in the simulation,
fabrication, measurement or detection chain fails here.  The fixture is one
display-lot calibration (platform seed 16, detector seed 11, M' = 3x10^4).

Two further lots (platform seeds 33 and 39, same detector) pin the counts
across process variation: they are the lots on which the one-class SVM fits
are hardest to converge, so a solver change that moves a boundary shows up
here even when the display lot stays put.
"""

import hashlib

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.experiments.platformcfg import PlatformConfig, generate_experiment_data
from repro.experiments.table1 import run_table1

#: SHA-256 of the raw float64 bytes of each synthesized array at seed 16.
GOLDEN_DIGESTS = {
    "sim_pcms": "d81c2fd444fd2aed320de098c17d1f2ec88f6f311176ab1b8f29d40d508013d1",
    "sim_fingerprints": "3a269b7a043777fee20757ee432cd85916ee8e898ef3194810960e6494c9a077",
    "dutt_pcms": "7164231e7b44002f72e108c9f9a153cfdad8a669a85a1453c2321a10b6df866d",
    "dutt_fingerprints": "0f06b7fa19465fd8dca2e19102d5bcbf7c07bef08d3b4f6e186f222712ac6208",
}

#: Per-boundary (FP, FN) over 80 Trojan-infested and 40 Trojan-free DUTTs.
GOLDEN_COUNTS = {
    "B1": (0, 40),
    "B2": (0, 37),
    "B3": (0, 40),
    "B4": (0, 40),
    "B5": (0, 4),
}

#: Per-boundary (FP, FN) of the cross-lot pins, keyed by platform seed.
CROSS_LOT_COUNTS = {
    33: {"B1": (0, 16), "B2": (0, 0), "B3": (0, 40), "B4": (0, 40), "B5": (0, 0)},
    39: {"B1": (0, 40), "B2": (6, 21), "B3": (0, 40), "B4": (0, 40), "B5": (0, 33)},
}


@pytest.fixture(scope="module")
def display_lot():
    return generate_experiment_data(PlatformConfig(seed=16))


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_data_digest(display_lot, name):
    array = getattr(display_lot, name)
    assert array.dtype == np.float64
    digest = hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()
    assert digest == GOLDEN_DIGESTS[name]


def test_table1_counts(display_lot):
    result = run_table1(
        detector_config=DetectorConfig(kde_samples=30_000, seed=11), data=display_lot
    )
    counts = {name: (m.fp_count, m.fn_count) for name, m in result.metrics.items()}
    assert counts == GOLDEN_COUNTS
    assert all(m.n_infested == 80 and m.n_trojan_free == 40
               for m in result.metrics.values())


@pytest.mark.parametrize("platform_seed", sorted(CROSS_LOT_COUNTS))
def test_cross_lot_counts(platform_seed):
    result = run_table1(
        platform=PlatformConfig(seed=platform_seed),
        detector_config=DetectorConfig(kde_samples=30_000, seed=11),
    )
    counts = {name: (m.fp_count, m.fn_count) for name, m in result.metrics.items()}
    assert counts == CROSS_LOT_COUNTS[platform_seed]
