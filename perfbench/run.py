"""The repository benchmark: one command per workload run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload calibrate --seed 0 --seconds 20 --trace 0

Workloads: ``calibrate``, ``screen-line``, ``screen-lot`` (see
``perfbench/README.md``).  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` is a separate run that wraps the program's public calls in
benchmark-side spans and reports the per-layer metrics.  Metric names and
units come from ``BENCHMARK.json``.

Everything before the last line of standard output is a human-readable
report (environment, failures by cause, every metric with its unit).  The
last line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every correctness check passed
and no operation failed; it is 2 when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import harness

WORKLOADS = ("calibrate", "screen-line", "screen-lot")


def declared_units(trace: bool) -> dict:
    """Metric name -> unit for this kind of run, from ``BENCHMARK.json``."""
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name == "calibrate":
        import calibrate

        return calibrate.run(seed, seconds, trace)
    import screen

    return screen.run(name, seed, seconds, trace)


def _latency_lines(outcomes, window_s: float) -> list:
    """Median, p90 and p99 by name, each with how many samples lie beyond."""
    lines = []
    n = outcomes.attempted
    for q in (50, 90, 99):
        value = outcomes.latency_ms(q, window_s)
        above = sum(1 for s in outcomes.latencies_s if s * 1e3 > value)
        note = "" if above >= 10 else "  (fewer than 10 samples beyond)"
        lines.append(f"  latency_p{q}_ms {value:12.4f} ms    n={n} beyond={above}{note}")
    return lines


def print_report(args, result, metrics, units, idle, environment,
                 components) -> None:
    outcomes = result["outcomes"]
    counts = outcomes.counts()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} window={result['window_s']:.3f}s")
    print("environment " + json.dumps(environment, sort_keys=True))
    causes = ", ".join(f"{k} {v}" for k, v in counts["by_cause"].items())
    print(f"operations attempted {counts['attempted']}, succeeded "
          f"{counts['succeeded']}, failed {counts['failed']} ({causes})")
    error_rate = counts["failed"] / max(counts["attempted"], 1)
    print(f"  error_rate     {error_rate:12.4f} ratio")
    for line in _latency_lines(outcomes, result["window_s"]):
        print(line)
    print(f"  latency_tail_ms: median over {result['tail_slices']} time slice(s) "
          f"of p{result['tail_percentile']} within each")
    for check in result["checks"]:
        print(f"CHECK FAILED: {check}")
    print("metrics:")
    for name, unit in units.items():
        tag = "  (layer idle on this workload)" if name in idle else ""
        print(f"  {name:34s} {metrics[name]:14.4f} {unit}{tag}")
    for row, span_name, value_ms, note in result["report"].pop("reconcile", []):
        bench_ms = components.get(row)
        if bench_ms is None:
            continue
        print(f"reconcile {row:15s} {bench_ms:9.3f} ms  vs  {span_name:22s} "
              f"{value_ms:9.3f} ms per call  ratio {value_ms / bench_ms:5.2f}  ({note})")
    print("details " + json.dumps(result["report"], sort_keys=True, default=str))


def _component_rows() -> dict:
    """``benchmarks/BENCH_components.json`` results in ms ({} if absent)."""
    path = os.path.join(harness.ROOT, "benchmarks", "BENCH_components.json")
    try:
        with open(path) as handle:
            return {k: 1e3 * v for k, v in json.load(handle)["results"].items()}
    except (OSError, ValueError, KeyError):
        return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        harness.use_program_source()
    except harness.ProgramMissing as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    units = declared_units(trace)

    result = run_workload(args.workload, args.seed, args.seconds, trace)
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(units))
    missing = sorted(set(units) - set(metrics))
    if unknown or (missing and not trace):
        raise RuntimeError(f"metrics not as declared: unknown {unknown}, "
                           f"missing {missing}")
    # A layer the workload never calls did no work on it.
    for name in missing:
        metrics[name] = 0.0
    bad = [name for name, value in metrics.items() if not math.isfinite(value)]
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")

    outcomes = result["outcomes"]
    correct = not result["checks"] and outcomes.failed == 0
    print_report(args, result, metrics, units, set(missing),
                 harness.environment(args.seed), _component_rows())
    print(json.dumps({
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
