"""Benchmark-regression harness: component timings with a committed baseline.

``python benchmarks/bench_report.py`` (or the ``repro-bench`` console script)
times the pipeline's performance-critical components at the sizes the Table-1
run uses and writes them to a JSON report:

* ``kde_density`` — adaptive Epanechnikov KDE fit + density evaluation;
* ``kde_sample`` — drawing 10^5 tail-enhanced samples;
* ``ocsvm_fit`` — one-class SVM fit on a 1500-point population;
* ``mars_fit`` — the PCM -> fingerprint regressions;
* ``mars_forward`` — the MARS forward pass alone (400 x 6 problem);
* ``kmm_weights`` — kernel mean matching (100 train x 120 test);
* ``mc_run_batched`` — the 100-device Monte Carlo simulation (array
  programs over the device axis);
* ``aes_batch`` — vectorized AES-128 over a (2048 devices x 6 blocks)
  uint8 batch;
* ``table1`` — the end-to-end three-stage pipeline on pre-generated data;
* ``serve_batch`` — scoring 2048 devices of a fresh lot (platform seed
  10000, the lot the screening benchmark serves) against all five
  boundaries through the serving engine (the screening service's hot
  path).

``--compare BASELINE.json`` exits non-zero when any component is more than
``--threshold`` (default 20 %) slower than the committed baseline.  Timings
are machine-dependent: regenerate the baseline (``--output``) when moving to
different hardware, and treat cross-machine comparisons as indicative only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional

import numpy as np

SCHEMA_VERSION = 1

#: Per-component (repeats, warmup) overrides; default is (5, 1).
#: The two slowest rows used best-of-3 to keep the harness quick, but this
#: machine's timing noise is heavy-tailed (whole-VM stalls that outlast a
#: 3-repeat window), so they take the default 5 repeats like everything
#: else; best-of-5 keeps the gate from tripping on a stall.
_TIMING_PLAN = {}


def time_case(fn: Callable[[], object], repeats: int = 5, warmup: int = 1) -> float:
    """Best-of-``repeats`` wall time of ``fn`` in seconds.

    The minimum over repeats is the standard noise-robust point estimate for
    a deterministic workload: every source of interference only ever adds
    time.
    """
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def build_cases() -> Dict[str, Callable[[], object]]:
    """The component workloads, keyed by report name (insertion-ordered)."""
    from repro.circuits.montecarlo import MonteCarloEngine
    from repro.circuits.spicemodel import default_spice_deck
    from repro.crypto.aes import aes128_encrypt_blocks
    from repro.core.config import DetectorConfig
    from repro.core.datasets import train_regressions
    from repro.experiments.platformcfg import (
        SIM_NOISE,
        PlatformConfig,
        generate_experiment_data,
    )
    from repro.core.pipeline import GoldenChipFreeDetector
    from repro.experiments.table1 import run_table1
    from repro.learn.mars import MarsRegression
    from repro.learn.ocsvm import OneClassSvm
    from repro.serve.engine import ScoringEngine
    from repro.stats.kde import AdaptiveKde
    from repro.stats.kmm import KernelMeanMatcher
    from repro.testbed.campaign import FingerprintCampaign

    data = generate_experiment_data(PlatformConfig())
    rng = np.random.default_rng(0)
    kde_train = rng.standard_normal((1500, 6))
    kde_eval = rng.standard_normal((2000, 6))
    svm_train = np.random.default_rng(0).standard_normal((1500, 6))
    bench_detector = DetectorConfig(kde_samples=30_000)
    sample_kde = AdaptiveKde(alpha=0.5).fit(data.sim_fingerprints)
    deck = default_spice_deck()
    sim_campaign = FingerprintCampaign.random_stimuli(nm=6, seed=0)
    engine = MonteCarloEngine(deck, sim_campaign, numerical_noise=SIM_NOISE)
    # A forward-pass-only workload larger than one Table-1 regression, so
    # the incremental engine's candidate scoring dominates the timing.
    mars_x = rng.uniform(-2.0, 2.0, size=(400, 6))
    mars_y = (
        np.abs(mars_x[:, 0])
        + np.maximum(0.0, mars_x[:, 1])
        - 0.5 * mars_x[:, 2]
        + 0.1 * rng.standard_normal(400)
    )
    forward_model = MarsRegression(max_terms=21)
    # The serve case times scoring only, so the fit (the same stages as the
    # table1 case) is setup.
    serve_detector = GoldenChipFreeDetector(bench_detector)
    serve_detector.fit_premanufacturing(data.sim_pcms, data.sim_fingerprints)
    serve_detector.fit_silicon(data.dutt_pcms)
    serve_engine = ScoringEngine(serve_detector)
    # Devices from another lot lie far from the support vectors, as in
    # production screening; the display lot's own DUTTs sit near the
    # boundaries and never reach the kernel's underflow tail.
    screened = generate_experiment_data(
        PlatformConfig(seed=10_000, n_chips=342)
    ).dutt_fingerprints
    reps = -(-2048 // screened.shape[0])
    serve_batch = np.tile(screened, (reps, 1))[:2048]
    aes_key = rng.bytes(16)
    aes_blocks = rng.integers(0, 256, size=(2048, 6, 16), dtype=np.uint8)

    return {
        "kde_density": lambda: AdaptiveKde(alpha=0.5).fit(kde_train).density(kde_eval),
        "kde_sample": lambda: sample_kde.sample(100_000, rng=0),
        "ocsvm_fit": lambda: OneClassSvm(nu=0.08, seed=0).fit(svm_train),
        "mars_fit": lambda: train_regressions(data.sim_pcms, data.sim_fingerprints),
        "mars_forward": lambda: forward_model._forward_pass(mars_x, mars_y),
        "kmm_weights": lambda: KernelMeanMatcher().fit(data.sim_pcms, data.dutt_pcms),
        "mc_run_batched": lambda: engine.run(100, seed=0),
        "aes_batch": lambda: aes128_encrypt_blocks(aes_key, aes_blocks),
        "table1": lambda: run_table1(detector_config=bench_detector, data=data),
        "serve_batch": lambda: serve_engine.score(serve_batch),
    }


def run_report(verbose: bool = True) -> dict:
    """Time every component and return the report dictionary."""
    results: Dict[str, float] = {}
    for name, fn in build_cases().items():
        repeats, warmup = _TIMING_PLAN.get(name, (5, 1))
        results[name] = time_case(fn, repeats=repeats, warmup=warmup)
        if verbose:
            print(f"{name:>12}: {results[name] * 1e3:9.2f} ms")
    return {"schema": SCHEMA_VERSION, "units": "seconds", "results": results}


def compare_reports(current: dict, baseline: dict, threshold: float = 0.20) -> List[str]:
    """Regression messages for components slower than ``baseline`` by > threshold.

    Components present in only one report are ignored (they have no
    reference); a missing overlap entirely is itself an error.
    """
    cur = current.get("results", {})
    base = baseline.get("results", {})
    shared = [name for name in base if name in cur]
    if not shared:
        return ["no shared components between report and baseline"]
    failures = []
    for name in shared:
        if base[name] <= 0:
            continue
        ratio = cur[name] / base[name]
        if ratio > 1.0 + threshold:
            failures.append(
                f"{name}: {cur[name] * 1e3:.2f} ms vs baseline "
                f"{base[name] * 1e3:.2f} ms ({ratio:.2f}x, limit "
                f"{1.0 + threshold:.2f}x)"
            )
    return failures


def write_run_artifacts(report: dict, run_dir: str, argv: List[str]) -> str:
    """Write a run manifest whose ``results`` block holds the timing report.

    Same manifest format as traced pipeline runs; returns its path.
    """
    from repro.obs.manifest import (
        RunManifest,
        collect_environment,
        git_revision,
        new_run_id,
        write_manifest,
    )

    run_id = os.path.basename(os.path.normpath(run_dir)) or new_run_id()
    manifest = RunManifest(
        run_id=run_id,
        command="bench",
        created=time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime()),
        argv=list(argv),
        environment=collect_environment(),
        git=git_revision(),
        config={"schema": report["schema"]},
        results=report["results"],
    )
    return write_manifest(manifest, run_dir)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point for the benchmark report / regression gate."""
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--output", type=str, default=None,
        help="write the timing report to this JSON file",
    )
    parser.add_argument(
        "--compare", type=str, default=None,
        help="baseline JSON to compare against; exit 1 on regression",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.20,
        help="allowed slowdown vs baseline (0.20 = 20%%)",
    )
    parser.add_argument(
        "--run-dir", type=str, default=None,
        help="also write manifest.json for this bench run "
             "(same format as traced pipeline runs)",
    )
    args = parser.parse_args(argv)
    argv_record = list(sys.argv[1:]) if argv is None else list(argv)

    report = run_report()

    if args.run_dir:
        manifest_path = write_run_artifacts(report, args.run_dir, argv_record)
        print(f"wrote {manifest_path}")

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")

    if args.compare:
        with open(args.compare, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        failures = compare_reports(report, baseline, threshold=args.threshold)
        if failures:
            print("\nbenchmark regressions:", file=sys.stderr)
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"\nno regressions vs {args.compare} "
              f"(threshold {args.threshold * 100:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
