"""Import discipline: scipy is imported only inside the code that computes with it.

Every tester station, CLI command and server worker starts a fresh
process, and importing ``scipy.stats``/``scipy.linalg`` costs about a
second there.  Start-up and serving compute with numpy alone, so importing
the package, the CLI or the server, and loading and scoring a bundle, must
leave every ``scipy`` module out of ``sys.modules``.  A further check proves
the function-level imports do run where scipy is needed.

The same fresh-process check guards the layering of the ablation
baselines: serving and the detector's own fits never load
:mod:`repro.experiments.ablations` or :mod:`repro.experiments.baselines`.

Each check runs in a fresh interpreter: the test process itself has long
since imported scipy.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.serve.bundle import export_bundle

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Modules only the ablations load.
ABLATION_ONLY = ("repro.experiments.ablations", "repro.experiments.baselines")


def run_fresh(script: str, *args: str, packages=("scipy",)) -> set:
    """Run ``script`` in a fresh ``python -c``; return the modules it left
    loaded from ``packages`` (each package itself or any of its submodules)."""
    loaded = (
        "print(','.join(m for m in sys.modules if any("
        f"m == p or m.startswith(p + '.') for p in {tuple(packages)!r})))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", "import sys\n" + script + loaded, *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return set(filter(None, result.stdout.splitlines()[-1].split(",")))


@pytest.mark.parametrize("module", ["repro", "repro.cli", "repro.serve"])
def test_import_loads_no_scipy(module):
    assert run_fresh(f"import {module}\n") == set()


def test_bundle_load_score_and_serve_load_no_scipy(fitted_detector, experiment_data,
                                                   tmp_path):
    path = export_bundle(fitted_detector, tmp_path / "detector.npz").path
    probe = tmp_path / "probe.npy"
    np.save(probe, experiment_data.dutt_fingerprints[:8])
    script = (
        "import numpy as np\n"
        "from repro.serve import DetectorServer, ScoringEngine, load_bundle\n"
        "bundle = load_bundle(sys.argv[1])\n"
        "result = ScoringEngine(bundle.detector).score(np.load(sys.argv[2]))\n"
        "assert result.n_devices == 8\n"
        "DetectorServer(bundle, port=0).start().stop()\n"
    )
    assert run_fresh(script, str(path), str(probe)) == set()


def test_fits_load_scipy_lazily():
    script = (
        "import numpy as np\n"
        "from repro.experiments.baselines import EllipticEnvelope, GpdTailEnhancer\n"
        "from repro.stats.kmm import KernelMeanMatcher\n"
        "assert not any(m.startswith('scipy') for m in sys.modules)\n"
        "rng = np.random.default_rng(0)\n"
        "data = rng.standard_normal((200, 3))\n"
        "EllipticEnvelope().fit(data)\n"
        "KernelMeanMatcher().fit(data[:60], data[60:120] + 0.3)\n"
        "GpdTailEnhancer().fit(data)\n"
    )
    loaded = run_fresh(script)
    assert {"scipy.special", "scipy.linalg", "scipy.stats"} <= loaded


def test_serving_and_fits_never_load_the_ablations(fitted_detector,
                                                   experiment_data, tmp_path):
    path = export_bundle(fitted_detector, tmp_path / "detector.npz").path
    data = tmp_path / "data.npz"
    np.savez(data, sim_pcms=experiment_data.sim_pcms,
             sim_fingerprints=experiment_data.sim_fingerprints,
             dutt_pcms=experiment_data.dutt_pcms,
             dutt_fingerprints=experiment_data.dutt_fingerprints)
    script = (
        "import numpy as np\n"
        "import repro.serve\n"
        "from repro.core.config import DetectorConfig\n"
        "from repro.core.pipeline import GoldenChipFreeDetector\n"
        "from repro.serve import ScoringEngine, load_bundle\n"
        "data = np.load(sys.argv[2])\n"
        "bundle = load_bundle(sys.argv[1])\n"
        "ScoringEngine(bundle.detector).score(data['dutt_fingerprints'][:8])\n"
        "detector = GoldenChipFreeDetector(\n"
        "    DetectorConfig(kde_samples=500, svm_max_training_samples=200))\n"
        "detector.fit_premanufacturing(data['sim_pcms'], data['sim_fingerprints'])\n"
        "detector.fit_silicon(data['dutt_pcms'])\n"
    )
    assert run_fresh(script, str(path), str(data), packages=ABLATION_ONLY) == set()
