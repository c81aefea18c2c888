"""Import discipline: scipy is imported only inside the code that computes with it.

Every tester station, CLI command and server worker starts a fresh
process, and importing ``scipy.stats``/``scipy.linalg`` costs about a
second there.  Start-up and serving compute with numpy alone, so importing
the package, the CLI or the server, and loading and scoring a bundle, must
leave every ``scipy`` module out of ``sys.modules``.  The last check proves
the function-level imports do run where scipy is needed.

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

#: Prints the names of the loaded scipy modules as one comma-joined line.
LOADED_SCIPY = (
    "print(','.join(m for m in sys.modules"
    " if m == 'scipy' or m.startswith('scipy.')))\n"
)


def run_fresh(script: str, *args: str) -> set:
    """Run ``script`` in a fresh ``python -c``; return the scipy modules it left."""
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", "import sys\n" + script + LOADED_SCIPY, *args],
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
        "from repro.learn.elliptic import EllipticEnvelope\n"
        "from repro.stats.evt import GpdTailEnhancer\n"
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
