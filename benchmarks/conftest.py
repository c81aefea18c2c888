"""Shared benchmark fixtures.

The silicon population is generated once per session so individual benches
time the analysis stages, not the (identical) data synthesis.  Every bench
prints the table/figure rows it regenerates, so running

    pytest benchmarks/ --benchmark-only -s

reproduces the paper's evaluation artifacts alongside the timings.
"""

from __future__ import annotations

import pytest

from repro.core.config import DetectorConfig
from repro.experiments.platformcfg import PlatformConfig, generate_experiment_data

#: Tail-enhanced set size used by the benches.  The paper's 10^5 also works
#: (the boundary learner subsamples); 3x10^4 keeps the full suite fast.
BENCH_KDE_SAMPLES = 30_000


@pytest.fixture(scope="session")
def paper_data():
    """The paper-sized experiment: 100 MC devices, 40 chips x 3 versions."""
    return generate_experiment_data(PlatformConfig())


@pytest.fixture()
def bench_config():
    """Detector configuration used by the benches."""
    return DetectorConfig(kde_samples=BENCH_KDE_SAMPLES)

