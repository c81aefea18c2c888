"""Golden values of the display lot: exact data digests and Table-1 counts.

The integration tests bound Table 1 loosely; these pin it exactly, so a
silent stream re-roll or a numerics change anywhere in the simulation,
fabrication, measurement or detection chain fails here.  The fixture is one
display-lot calibration (platform seed 16, detector seed 11, M' = 3x10^4).
The five one-class SVM gammas of that calibration are pinned exactly too:
the median heuristic that sets them must keep every bit.

Two further lots (platform seeds 33 and 39, same detector) pin the counts
across process variation: they are the lots on which the one-class SVM fits
are hardest to converge, so a solver change that moves a boundary shows up
here even when the display lot stays put.

Ablation A7 (classifier choice and tail enhancer) is pinned on the display
lot too: it is the only caller of the elliptic envelope and the GPD
enhancer.  The GPD arm misses every Trojan-free DUTT, so its count cannot
see a changed draw; a digest of one seeded draw pins the draw itself.

Ablation A5 (latent-gain vs independent per-output MARS) is pinned the same
way.  Its independent arm misses every Trojan-free DUTT, so a digest of the
independent models' predictions on the DUTT PCMs pins the model itself.
"""

import hashlib

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.experiments.ablations import (
    ablate_boundary_method,
    ablate_regression_mode,
    ablate_tail_enhancer,
)
from repro.experiments.baselines import GpdTailEnhancer
from repro.experiments.platformcfg import PlatformConfig, generate_experiment_data
from repro.experiments.table1 import run_table1
from repro.learn.mars import MultiOutputMars

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

#: Per-boundary median-heuristic OC-SVM gamma on the display lot.
GOLDEN_GAMMAS = {
    "B1": 0.37309281092106256,
    "B2": 0.22385924947754354,
    "B3": 0.5762475042163021,
    "B4": 1.4832868990263752,
    "B5": 0.6790870508230964,
}

#: Per-boundary (FP, FN) of the cross-lot pins, keyed by platform seed.
CROSS_LOT_COUNTS = {
    33: {"B1": (0, 16), "B2": (0, 0), "B3": (0, 40), "B4": (0, 40), "B5": (0, 0)},
    39: {"B1": (0, 40), "B2": (6, 21), "B3": (0, 40), "B4": (0, 40), "B5": (0, 33)},
}

#: (label, FP, FN) of the A7 rows on the display lot.
GOLDEN_A7_BOUNDARY = [
    ("B5 with ocsvm boundary", 0, 4),
    ("B5 with mahalanobis boundary", 0, 17),
]
GOLDEN_A7_TAIL = [
    ("B5 via adaptive KDE (paper)", 0, 5),
    ("B5 via GPD radial tail", 0, 40),
]

#: (label, FP, FN) of the A5 rows on the display lot.
GOLDEN_A5 = [
    ("B5 with latent_gain regression", 0, 4),
    ("B5 with independent regression", 0, 40),
]

#: SHA-256 of the independent MARS predictions on the display lot's DUTT
#: PCMs, fitted on its simulation data with the config's MARS defaults.
GOLDEN_INDEPENDENT_PREDICTIONS = (
    "062a35586e14c04e8b7623cb66bf296f0461304be8a8b0e88b8d2e771700ac15"
)

#: SHA-256 of ``GpdTailEnhancer().fit(dutt_fingerprints).sample(4096, rng=11)``.
GOLDEN_GPD_DRAW = "91d5a34b7c01b26c8e9616f331d278507189f89baba2f9e1d57fc2e4daa82367"


@pytest.fixture(scope="module")
def display_lot():
    return generate_experiment_data(PlatformConfig(seed=16))


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_data_digest(display_lot, name):
    array = getattr(display_lot, name)
    assert array.dtype == np.float64
    digest = hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()
    assert digest == GOLDEN_DIGESTS[name]


@pytest.fixture(scope="module")
def display_table1(display_lot):
    return run_table1(
        detector_config=DetectorConfig(kde_samples=30_000, seed=11), data=display_lot
    )


def test_table1_counts(display_table1):
    metrics = display_table1.metrics
    counts = {name: (m.fp_count, m.fn_count) for name, m in metrics.items()}
    assert counts == GOLDEN_COUNTS
    assert all(m.n_infested == 80 and m.n_trojan_free == 40
               for m in metrics.values())


def test_boundary_gammas(display_table1):
    boundaries = display_table1.detector.boundaries
    gammas = {name: region.svm.effective_gamma_ for name, region in boundaries.items()}
    assert gammas == GOLDEN_GAMMAS


@pytest.mark.parametrize("platform_seed", sorted(CROSS_LOT_COUNTS))
def test_cross_lot_counts(platform_seed):
    result = run_table1(
        platform=PlatformConfig(seed=platform_seed),
        detector_config=DetectorConfig(kde_samples=30_000, seed=11),
    )
    counts = {name: (m.fp_count, m.fn_count) for name, m in result.metrics.items()}
    assert counts == CROSS_LOT_COUNTS[platform_seed]


@pytest.mark.parametrize("ablation, expected", [
    (ablate_boundary_method, GOLDEN_A7_BOUNDARY),
    (ablate_tail_enhancer, GOLDEN_A7_TAIL),
])
def test_a7_rows(display_lot, ablation, expected):
    rows = ablation(
        data=display_lot, base_config=DetectorConfig(kde_samples=30_000, seed=11)
    )
    assert [(row.label, row.fp_count, row.fn_count) for row in rows] == expected
    assert all(row.n_infested == 80 and row.n_trojan_free == 40 for row in rows)


def test_a5_rows(display_lot):
    rows = ablate_regression_mode(
        data=display_lot, base_config=DetectorConfig(kde_samples=30_000, seed=11)
    )
    assert [(row.label, row.fp_count, row.fn_count) for row in rows] == GOLDEN_A5
    assert all(row.n_infested == 80 and row.n_trojan_free == 40 for row in rows)


def test_gpd_draw_digest(display_lot):
    draw = GpdTailEnhancer().fit(display_lot.dutt_fingerprints).sample(4096, rng=11)
    assert draw.shape == (4096, 6)
    digest = hashlib.sha256(np.ascontiguousarray(draw).tobytes()).hexdigest()
    assert digest == GOLDEN_GPD_DRAW


def test_independent_regression_digest(display_lot):
    config = DetectorConfig()
    model = MultiOutputMars(
        max_terms=config.mars_max_terms,
        max_degree=config.mars_max_degree,
        penalty=config.mars_penalty,
    ).fit(display_lot.sim_pcms, display_lot.sim_fingerprints)
    predictions = model.predict(display_lot.dutt_pcms)
    assert predictions.shape == (120, 6)
    digest = hashlib.sha256(np.ascontiguousarray(predictions).tobytes()).hexdigest()
    assert digest == GOLDEN_INDEPENDENT_PREDICTIONS
