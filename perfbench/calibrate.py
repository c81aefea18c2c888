"""Workload ``calibrate``: one full lot calibration plus Trojan test per operation.

One operation synthesizes the display lot's platform (platform seed 16:
100 Monte Carlo devices, 40 chips x 3 design versions), fits the
pre-manufacturing boundaries B1/B2, anchors B3..B5 in silicon (MARS, KMM,
adaptive KDE, five one-class SVMs) and evaluates all 120 devices under
Trojan test, with the CLI ``table1`` defaults (M' = 3e4, one worker
process).  The workload seed selects the detector seed, ``11 + seed``, so
seed 0 is exactly ``python -m repro.cli table1``.

The platform lot stays fixed.  Lots differ in calibration cost by up to
5x, because the KMM QP takes between 17 and 500 iterations depending on
the lot, so a seed-chosen lot would measure the lot rather than the code.

Every operation repeats the same calibration, so every operation must give
the FP/FN counts of the untimed warm-up operation.  At seed 0 those must
be the published display-lot counts.

Run as a script with ``--probe`` it is the set-up probe: a fresh process
that imports the program, calibrates once and prints its counts.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
import traceback

import harness
from spans import CALIBRATE_TARGETS, Recorder, attr_total, total

#: Fresh processes timed for ``setup_s`` (the median is reported).
SETUP_REPEATS = 3
#: The tail percentile reported: with ~70 operations per run, p75 is a
#: percentile with well over ten samples beyond it.
TAIL_PERCENTILE = 75


def lot_seeds(seed: int) -> dict:
    """Platform and detector seeds of the lot a run calibrates."""
    return {"platform": harness.DISPLAY_PLATFORM_SEED,
            "detector": harness.DISPLAY_DETECTOR_SEED + seed}


def calibrate_once(seeds: dict):
    """One lot calibration + Trojan test; returns ``({B: [fp, fn]}, devices)``."""
    from repro.core.config import DetectorConfig
    from repro.core.pipeline import GoldenChipFreeDetector
    from repro.experiments import platformcfg

    data = platformcfg.generate_experiment_data(
        platformcfg.PlatformConfig(seed=seeds["platform"])
    )
    detector = GoldenChipFreeDetector(
        DetectorConfig(kde_samples=harness.KDE_SAMPLES, seed=seeds["detector"])
    )
    detector.fit_premanufacturing(data.sim_pcms, data.sim_fingerprints)
    detector.fit_silicon(data.dutt_pcms)
    metrics = detector.evaluate(data.dutt_fingerprints, data.infested)
    counts = {name: [m.fp_count, m.fn_count] for name, m in metrics.items()}
    return counts, data.n_devices


def _probe_setup(seed: int):
    """Spawn a fresh process; seconds until its first counts, and the counts."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--probe", "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, cwd=harness.ROOT,
        env=harness.child_env(),
    )
    watchdog = threading.Timer(120.0, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if code != 0 or not line:
        raise RuntimeError(f"set-up probe exited with code {code}")
    return elapsed, json.loads(line)


def _measure(seeds, reference, deadline, outcomes, recorder=None) -> float:
    """Closed loop of operations until ``deadline``; returns the window (s)."""
    window_start = time.perf_counter()
    while time.perf_counter() < deadline:
        op = recorder.open("op") if recorder else None
        start = time.perf_counter()
        try:
            counts, devices = calibrate_once(seeds)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            outcomes.fail("exception")
            continue
        finally:
            elapsed = time.perf_counter() - start
            if op is not None:
                recorder.close(op)
        if counts == reference:
            outcomes.ok(elapsed, devices)
        else:
            outcomes.fail("wrong_verdict")
    return time.perf_counter() - window_start


def _layers(recorder: Recorder) -> dict:
    """Per-operation layer figures from the traced operations."""
    ops = recorder.named("op")
    n = len(ops)

    def ms(name, what="duration"):
        return 1e3 * total(recorder.named(name), what) / n

    kde = recorder.named("stats.kde.fit") + recorder.named("stats.kde.sample")
    kmm = recorder.named("stats.kmm.fit")
    svm = recorder.named("learn.ocsvm.fit")
    op_s = total(ops)
    covered = total([span for span in recorder.spans
                     if span.parent is not None and span.parent.name == "op"])
    return {
        "platform.mc_ms": ms("platform.mc"),
        "platform.silicon_ms": ms("platform.silicon"),
        "learn.mars.fit_ms": ms("learn.mars.fit"),
        "stats.kde.fit_ms": ms("stats.kde.fit"),
        "stats.kde.sample_ms": ms("stats.kde.sample"),
        "stats.kde.cpu_ms": 1e3 * total(kde, "cpu") / n,
        "stats.kmm.fit_ms": ms("stats.kmm.fit"),
        "stats.kmm.cpu_ms": ms("stats.kmm.fit", "cpu"),
        "stats.kmm.qp_iterations": attr_total(kmm, "qp_iterations") / n,
        "stats.kmm.ess": attr_total(kmm, "ess") / n,
        "learn.ocsvm.fit_ms": ms("learn.ocsvm.fit"),
        "learn.ocsvm.cpu_ms": ms("learn.ocsvm.fit", "cpu"),
        "learn.ocsvm.fits": len(svm) / n,
        "learn.ocsvm.smo_iterations": attr_total(svm, "iterations") / n,
        "learn.ocsvm.n_support": attr_total(svm, "n_support") / n,
        "core.boundaries.fit_self_ms": ms("core.boundaries.fit", "self_time"),
        "core.boundaries.decision_ms": ms("core.boundaries.decision"),
        "core.pipeline.fit_self_ms": ms("core.pipeline.fit", "self_time"),
        "core.pipeline.evaluate_ms": ms("core.pipeline.evaluate"),
        "trace.coverage": covered / op_s,
    }


#: Micro-bench rows of ``benchmarks/BENCH_components.json`` and the layer
#: call each stands for: (row, span, what the row times).
RECONCILE = (
    ("kmm_weights", "stats.kmm.fit", "one KMM fit, 100 x 120 PCMs"),
    ("ocsvm_fit", "learn.ocsvm.fit", "one fit, 1500 standard-normal points"),
    ("kde_sample", "stats.kde.sample", "fit + 1e4 draws vs one 3e4 draw"),
    ("mars_fit", "learn.mars.fit", "latent-gain MARS on the 100 MC devices"),
    ("mc_run_batched", "platform.mc", "100-device Monte Carlo"),
)


def reconcile(recorder: Recorder) -> list:
    """Each component micro-bench row beside the in-pipeline call it times:
    (row, span, ms per call, note)."""
    return [(row, name, 1e3 * total(spans) / len(spans), note)
            for row, name, note in RECONCILE
            if (spans := recorder.named(name))]


def run(seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload; returns outcomes, metrics and report fields."""
    seeds = lot_seeds(seed)
    setups = [] if trace else [_probe_setup(seed) for _ in range(SETUP_REPEATS)]

    harness.quiet_program()
    reference, _ = calibrate_once(seeds)  # warm-up, untimed
    checks = []
    if seed == 0:
        expected = {name: list(pair) for name, pair in harness.DISPLAY_COUNTS.items()}
        if reference != expected:
            checks.append(f"display lot counts {reference} != {expected}")
    for _, counts in setups:
        if counts != reference:
            checks.append(f"set-up probe counts {counts} != {reference}")

    outcomes = harness.Outcomes()
    start = time.perf_counter()
    report = {"seeds": seeds, "reference_counts": reference}
    if not trace:
        window = _measure(seeds, reference, start + seconds, outcomes)
        setup_samples = [elapsed for elapsed, _ in setups]
        metrics = outcomes.end_to_end(start, window, TAIL_PERCENTILE, 1,
                                      setup_samples, harness.self_peak_rss_mb())
        report["setup_samples_s"] = setup_samples
    else:
        untraced = harness.Outcomes()
        recorder = Recorder()
        window = 0.0
        for untraced_end, traced_end in harness.trace_slices(start, seconds):
            _measure(seeds, reference, untraced_end, untraced)
            recorder.install(CALIBRATE_TARGETS)
            try:
                window += _measure(seeds, reference, traced_end, outcomes, recorder)
            finally:
                recorder.uninstall()
        metrics = _layers(recorder)
        metrics["trace.overhead"] = (outcomes.latency_ms(50, window)
                                     / untraced.latency_ms(50, window))
        outcomes.merge(untraced)
        report["reconcile"] = reconcile(recorder)
    return {
        "outcomes": outcomes,
        "window_s": window,
        "tail_percentile": TAIL_PERCENTILE,
        "tail_slices": 1,
        "checks": checks,
        "metrics": metrics,
        "report": report,
    }


def _probe_main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="calibrate set-up probe")
    parser.add_argument("--probe", action="store_true", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    harness.use_program_source()
    harness.quiet_program()
    counts, _ = calibrate_once(lot_seeds(args.seed))
    print(json.dumps(counts), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(_probe_main())
