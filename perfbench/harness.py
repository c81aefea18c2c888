"""Shared plumbing of the benchmark: paths, statistics, outcomes, environment.

Nothing here imports the program under test at module level, so the
entry point can report a missing or broken source tree with a clean exit
code instead of a traceback.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from typing import Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space for fixtures (detector bundles); ignored by git.
WORK_DIR = os.path.join(ROOT, ".perfbench-work")

#: The paper's display lot: platform seed 16, detector seed 11, the lot
#: ``python -m repro.cli table1`` prints.
DISPLAY_PLATFORM_SEED = 16
DISPLAY_DETECTOR_SEED = 11
#: ``table1`` at the display seeds with the CLI defaults (M' = 3e4).
DISPLAY_COUNTS = {
    "B1": (0, 40), "B2": (0, 37), "B3": (0, 40), "B4": (0, 40), "B5": (0, 4),
}
#: CLI ``table1`` default tail-enhanced set size M'.
KDE_SAMPLES = 30_000

#: Failure causes counted separately; every one of them feeds ``failed``.
FAILURE_CAUSES = (
    "wrong_verdict", "http_4xx", "http_5xx", "backpressure_429",
    "timeout", "connection_error", "exception",
)

#: A traced run alternates untraced and traced slices, this many of each,
#: so machine drift cancels out of ``trace.overhead``.
TRACE_CYCLES = 3
#: Share of each cycle that runs untraced, as the overhead reference.
UNTRACED_SHARE = 1 / 3

#: Thread-count variables of the BLAS / OpenMP runtimes (recorded, never set).
THREAD_ENV_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class ProgramMissing(RuntimeError):
    """The checkout holds no importable program source."""


def use_program_source() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` (pure-Python build)."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise ProgramMissing(f"no program source at {SRC}/repro")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    """Environment for benchmark subprocesses: the caller's, plus ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def quiet_program() -> None:
    """Switch the artifact cache and the program's own tracing off."""
    from repro import cache, obs

    cache.configure(enabled=False)
    obs.disable()


def program_switches() -> Dict[str, bool]:
    """Whether the program's cache and observability session are active."""
    from repro import cache, obs

    return {"cache_enabled": cache.is_enabled(), "obs_enabled": obs.enabled()}


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``.

    Failed operations enter as ``inf``: a refused request misses every
    latency percentile it lands on.
    """
    if not values:
        return math.inf
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    if rank == low or ordered[low] == ordered[high]:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# ----------------------------------------------------------------------
# outcomes
# ----------------------------------------------------------------------


class Outcomes:
    """Per-operation latencies and failures, split by cause."""

    def __init__(self):
        self.latencies_s: List[float] = []
        #: ``time.perf_counter()`` at the end of each operation, in step
        #: with ``latencies_s``.
        self.finished_s: List[float] = []
        self.failures: Counter = Counter()
        self.devices_ok = 0

    @property
    def attempted(self) -> int:
        """Operations attempted."""
        return len(self.latencies_s)

    @property
    def failed(self) -> int:
        """Operations that failed, for any cause."""
        return sum(self.failures.values())

    def ok(self, seconds: float, devices: int) -> None:
        """Record one successful operation."""
        self.latencies_s.append(seconds)
        self.finished_s.append(time.perf_counter())
        self.devices_ok += devices

    def fail(self, cause: str) -> None:
        """Record one failed operation; it misses every percentile."""
        if cause not in FAILURE_CAUSES:
            raise ValueError(f"unknown failure cause {cause!r}")
        self.latencies_s.append(math.inf)
        self.finished_s.append(time.perf_counter())
        self.failures[cause] += 1

    def merge(self, other: "Outcomes") -> None:
        """Fold another client's outcomes into this one."""
        self.latencies_s.extend(other.latencies_s)
        self.finished_s.extend(other.finished_s)
        self.failures.update(other.failures)
        self.devices_ok += other.devices_ok

    def latency_ms(self, q: float, window_s: float) -> float:
        """Percentile ``q`` in ms; a percentile landing on a failure reads
        as the whole measurement window."""
        value = percentile(self.latencies_s, q)
        return (window_s if value == math.inf else value) * 1e3

    def slice_latencies_ms(self, q: float, start_s: float, window_s: float,
                           slices: int) -> List[float]:
        """Percentile ``q`` in ms of each of ``slices`` equal time slices of
        the window opened at ``start_s`` (operations go by when they ended;
        slices in which no operation ended are left out)."""
        parts: List[List[float]] = [[] for _ in range(slices)]
        for latency, end in zip(self.latencies_s, self.finished_s):
            k = int((end - start_s) / window_s * slices)
            parts[min(max(k, 0), slices - 1)].append(latency)
        values = [percentile(part, q) for part in parts if part]
        return [(window_s if v == math.inf else v) * 1e3 for v in values]

    def end_to_end(self, start_s: float, window_s: float, tail: float,
                   tail_slices: int, setups_s: List[float],
                   peak_rss_mb: float) -> Dict[str, float]:
        """The declared end-to-end metrics of one untraced run.

        ``latency_tail_ms`` is the median over ``tail_slices`` equal time
        slices of percentile ``tail`` within each slice, so that a stall of
        the machine in one stretch of the run does not set the figure.
        """
        return {
            "setup_s": statistics.median(setups_s),
            "latency_p50_ms": self.latency_ms(50, window_s),
            "latency_tail_ms": statistics.median(self.slice_latencies_ms(
                tail, start_s, window_s, tail_slices)),
            "throughput_dev_s": self.devices_ok / window_s,
            "success_rate": (self.attempted - self.failed) / self.attempted,
            "peak_rss_mb": peak_rss_mb,
        }

    def counts(self) -> dict:
        """Attempted / succeeded / failed, plus failures by cause."""
        return {
            "attempted": self.attempted,
            "succeeded": self.attempted - self.failed,
            "failed": self.failed,
            "by_cause": {cause: self.failures.get(cause, 0)
                         for cause in FAILURE_CAUSES},
        }


def trace_slices(start: float, seconds: float):
    """(untraced deadline, traced deadline) of each cycle of a traced run."""
    cycle = seconds / TRACE_CYCLES
    return [(start + cycle * (k + UNTRACED_SHARE), start + cycle * (k + 1))
            for k in range(TRACE_CYCLES)]


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------


def _blas_library() -> Optional[str]:
    try:
        import numpy

        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        return None


def source_digest() -> str:
    """SHA-256 over the program's Python sources (stands in for a git
    revision when the checkout is not a repository)."""
    hasher = hashlib.sha256()
    for directory, subdirs, files in os.walk(os.path.join(SRC, "repro")):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                hasher.update(os.path.relpath(path, SRC).encode("utf-8"))
                with open(path, "rb") as handle:
                    hasher.update(handle.read())
    return hasher.hexdigest()[:16]


def environment(seed: int) -> dict:
    """What a result depends on besides the code: machine, runtimes, seed."""
    import numpy
    import scipy
    from repro.obs.manifest import git_revision

    revision = git_revision(cwd=ROOT)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": _blas_library(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": revision["revision"] if revision else None,
        "source_digest": source_digest(),
        "workload_seed": seed,
        **program_switches(),
    }
