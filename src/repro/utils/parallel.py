"""Deterministic process-parallel execution with ordered gather.

The detector's five boundary fits (B1..B5, :mod:`repro.core.pipeline`) are
independent of each other and run through this pool when
``DetectorConfig.n_jobs`` asks for workers; simulation is one serial array
program and never uses it.
Naive parallelism breaks bit-reproducibility: a shared random stream
consumed in completion order yields different results on every run.  The
contract here is

* callers pre-assign every work item its own random stream
  (``SeedSequence.spawn``), so results do not depend on scheduling;
* :func:`parallel_map` always returns results in item order;
* ``n_jobs=1`` (the default) never touches a pool, and any pool
  *infrastructure* failure (fork refused, unpicklable payload, a broken
  worker) falls back to the serial path rather than aborting the run.

Worker counts are clamped to the machine's CPU count — oversubscribing
processes never helps the numpy-bound workloads here, and the clamp makes
``n_jobs=4`` safe to hard-code in scripts that also run on small boxes.

Pool lifecycle (worker count, item count, chunk size, fallbacks) is logged
on the ``repro.parallel`` logger — run the CLI with ``--log-level info`` to
see whether a ``--jobs`` request actually produced a pool.  With tracing
enabled (:mod:`repro.obs`), spans and metrics recorded inside workers are
collected per item and re-parented under the dispatching span.
"""

from __future__ import annotations

import logging
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, List, Optional

from repro.obs.trace import unwrap_pool_results, wrap_pool_task

#: Exceptions that indicate the *pool* (not the work) failed; these trigger
#: the serial fallback.  Everything else propagates to the caller.
_POOL_FAILURES = (OSError, BrokenProcessPool, pickle.PicklingError, ImportError)

_log = logging.getLogger("repro.parallel")


def resolve_n_jobs(n_jobs: Optional[int] = 1, cpu_count: Optional[int] = None) -> int:
    """Normalize an ``n_jobs`` request to an effective worker count.

    ``None`` and ``0`` mean serial; negative values count back from the
    machine size (``-1`` = all cores, joblib convention); positive requests
    are clamped to the CPU count.  ``cpu_count`` is injectable for tests.
    """
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    if n_jobs is None or n_jobs == 0:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs < 0:
        n_jobs = cpus + 1 + n_jobs
    return max(1, min(n_jobs, cpus))


def parallel_map(
    fn: Callable,
    items: Iterable,
    n_jobs: Optional[int] = 1,
    cpu_count: Optional[int] = None,
) -> List:
    """Apply ``fn`` to every item, optionally across a process pool.

    Results are gathered in item order regardless of completion order, so a
    caller that pre-seeds its items gets bit-identical output for every
    ``n_jobs`` value.  ``fn`` and the items must be picklable when a pool is
    used; if the pool cannot be built or breaks, the remaining work runs
    serially in-process.
    """

    def _serial() -> List:
        return [fn(item) for item in items]

    items = list(items)
    workers = min(resolve_n_jobs(n_jobs, cpu_count=cpu_count), len(items))
    if workers <= 1:
        if n_jobs not in (None, 0, 1):
            # A deliberate --jobs request that still ran serially is the
            # misconfiguration this log line exists to surface.
            _log.info("serial map of %d items (n_jobs=%r resolved to 1 worker)",
                      len(items), n_jobs)
        return _serial()
    try:
        # Closures and lambdas are not picklable; pickle signals this with
        # a mix of PicklingError / AttributeError / TypeError depending on
        # the payload, so probe once up front instead of enumerating them.
        pickle.dumps(fn)
    except Exception:
        _log.warning("payload %r is not picklable; running %d items serially",
                     getattr(fn, "__name__", fn), len(items))
        return _serial()
    chunksize = max(1, len(items) // (workers * 2))
    # When tracing is enabled, each work item runs under a fresh worker
    # tracer and hands its spans/metrics back with the result; the wrapper
    # is the identity when tracing is off (and adds no RNG use either way,
    # so results stay bit-identical).
    task = wrap_pool_task(fn)
    _log.info("starting process pool: %d workers, %d items, chunksize %d",
              workers, len(items), chunksize)
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(task, items, chunksize=chunksize))
        _log.info("process pool finished: %d results", len(results))
        return unwrap_pool_results(results)
    except _POOL_FAILURES as failure:
        _log.warning("process pool failed (%s: %s); falling back to serial",
                     type(failure).__name__, failure)
        return _serial()
