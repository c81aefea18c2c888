"""Import discipline: numpy is the only runtime dependency.

Every tester station, CLI command and server worker starts a fresh
process, and importing ``scipy.stats``/``scipy.linalg`` costs about a
second there.  Start-up, calibration and serving compute with numpy alone,
so importing the package, the CLI or the server, fitting KMM, running
``table1`` (traced or not) and loading and scoring a bundle must leave
every ``scipy`` module out of ``sys.modules``, and ``table1`` must run
with scipy imports refused.  scipy is the optional ``ablations`` extra:
a further check proves the ablation baselines import it inside the
functions that compute with it.

The same paths run in one process: the five boundary fits are serial, so
none of them loads ``multiprocessing`` or ``concurrent.futures`` either
(importing them costs ~6 ms of start-up).

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

#: Packages that start-up, calibration and serving must never load.
STARTUP_FORBIDDEN = ("scipy", "multiprocessing", "concurrent.futures")


#: Prepended to a fresh-process script: a ``sys.meta_path`` finder that
#: refuses every ``scipy`` import, as if the extra were not installed.
BLOCK_SCIPY = (
    "import importlib.abc\n"
    "class NoScipy(importlib.abc.MetaPathFinder):\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name == 'scipy' or name.startswith('scipy.'):\n"
    "            raise ModuleNotFoundError(f'No module named {name!r}', name=name)\n"
    "sys.meta_path.insert(0, NoScipy())\n"
)


def run_fresh_output(script: str, *args: str, packages=STARTUP_FORBIDDEN):
    """Run ``script`` in a fresh ``python -c``; return its stdout lines
    and the modules it left loaded from ``packages`` (each package itself
    or any of its submodules)."""
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
    lines = result.stdout.splitlines()
    return lines[:-1], set(filter(None, lines[-1].split(",")))


def run_fresh(script: str, *args: str, packages=STARTUP_FORBIDDEN) -> set:
    """The modules from ``packages`` that ``script`` left loaded."""
    return run_fresh_output(script, *args, packages=packages)[1]


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


def test_production_runs_load_no_scipy(tmp_path):
    kmm_fit = (
        "import numpy as np\n"
        "from repro.stats.kmm import KernelMeanMatcher\n"
        "data = np.random.default_rng(0).standard_normal((120, 3))\n"
        "assert KernelMeanMatcher(B=1000.0).fit(data[:60], data[60:] + 0.3).converged_\n"
    )
    assert run_fresh(kmm_fit) == set()
    traced_table1 = (
        "from repro.cli import main\n"
        "assert main(['table1', '--trace', '--run-dir', sys.argv[1]]) == 0\n"
    )
    assert run_fresh(traced_table1, str(tmp_path / "run")) == set()
    assert (tmp_path / "run" / "manifest.json").is_file()


def test_table1_runs_with_scipy_imports_refused():
    script = BLOCK_SCIPY + (
        "from repro.cli import main\n"
        "assert main(['table1']) == 0\n"
    )
    lines, loaded = run_fresh_output(script)
    assert loaded == set()
    rows = [[cell.strip() for cell in line.split("|")] for line in lines
            if line[:2] in ("S1", "S2", "S3", "S4", "S5")]
    assert rows == [["S1", "0/80", "40/40"], ["S2", "0/80", "37/40"],
                    ["S3", "0/80", "40/40"], ["S4", "0/80", "40/40"],
                    ["S5", "0/80", "4/40"]]


def test_ablation_baselines_load_scipy_lazily():
    script = (
        "import numpy as np\n"
        "from repro.experiments.baselines import EllipticEnvelope, GpdTailEnhancer\n"
        "assert not any(m.startswith('scipy') for m in sys.modules)\n"
        "data = np.random.default_rng(0).standard_normal((200, 3))\n"
        "EllipticEnvelope().fit(data)\n"
        "GpdTailEnhancer().fit(data)\n"
    )
    loaded = run_fresh(script)
    assert {"scipy.special", "scipy.stats"} <= loaded


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
