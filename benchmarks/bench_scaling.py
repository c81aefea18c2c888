#!/usr/bin/env python
"""Population-size scaling of the Monte Carlo engine (report only).

Times ``MonteCarloEngine.run`` at growing ``n_mc`` and prints the best wall
time and the simulated devices per second at each size:

    PYTHONPATH=src python benchmarks/bench_scaling.py
    PYTHONPATH=src python benchmarks/bench_scaling.py --sizes 1000,10000,100000

or ``make bench-scaling``.  This bench is intentionally *not* a regression
gate: the interesting output is the scaling shape (the paper's method
sharpens with population size, so the question is how far ``n_mc`` can grow
before simulation dominates again).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List


def _time_once(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_scaling(sizes: List[int], repeats: int = 2) -> List[dict]:
    """Best-of-``repeats`` wall time at every size; one row dict per size."""
    from repro.circuits.montecarlo import MonteCarloEngine
    from repro.circuits.spicemodel import default_spice_deck
    from repro.experiments.platformcfg import SIM_NOISE
    from repro.testbed.campaign import FingerprintCampaign

    campaign = FingerprintCampaign.random_stimuli(nm=6, seed=0)
    engine = MonteCarloEngine(default_spice_deck(), campaign,
                              numerical_noise=SIM_NOISE)
    engine.run(50, seed=0)  # warm imports, tables and caches

    rows = []
    for n in sizes:
        seconds = min(_time_once(lambda: engine.run(n, seed=0))
                      for _ in range(repeats))
        rows.append({"n_mc": n, "seconds": seconds, "devices_per_s": n / seconds})
    return rows


def render_table(rows: List[dict]) -> str:
    lines = [f"{'n_mc':>8} | {'wall':>12} | {'devices/s':>12}", "-" * 38]
    for row in rows:
        lines.append(
            f"{row['n_mc']:>8} | {row['seconds']:>10.3f} s | "
            f"{row['devices_per_s']:>12.0f}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--sizes", type=str, default="1000,10000",
        help="comma-separated n_mc values (default: 1000,10000)",
    )
    parser.add_argument(
        "--repeats", type=int, default=2,
        help="timing repeats per size; best is reported",
    )
    args = parser.parse_args(argv)
    sizes = [int(token) for token in args.sizes.split(",") if token.strip()]
    if not sizes or any(n <= 0 for n in sizes):
        parser.error(f"--sizes must be positive integers, got {args.sizes!r}")

    print(render_table(run_scaling(sorted(sizes), repeats=args.repeats)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
