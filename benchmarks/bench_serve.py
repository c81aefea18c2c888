"""Closed-loop load generator for the Trojan-screening service.

Fits a detector on the small fixture (12 chips, 40 Monte Carlo devices),
exports it as a ``repro-bundle-v1``, serves it over HTTP on an ephemeral
port, and drives it with ``--clients`` concurrent closed-loop clients
(each sends its next request the moment the previous response lands).
Reports sustained throughput in devices/second plus request-latency
p50/p95/p99, and exits non-zero when throughput lands below
``--min-throughput`` — the serving analogue of the component-timing gate
in ``bench_report.py``::

    python benchmarks/bench_serve.py --min-throughput 45000

It also reads the server's ``/metricz`` before and after the measurement
window and reports how the server batched that window: requests per
scoring pass (``serve.requests`` over the ``serve.batch_size`` count) and
mean devices per pass.  Above one request per pass, concurrent requests
were combined into shared batches.

The default workload (8 clients x 64 devices/request, micro-batching on)
is the acceptance configuration: a batched screening service on the small
fixture must sustain at least 45000 devices/second.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
import time
from typing import List, Optional

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.core.config import DetectorConfig
from repro.core.pipeline import GoldenChipFreeDetector
from repro.experiments.platformcfg import PlatformConfig, generate_experiment_data
from repro.serve.bundle import export_bundle
from repro.serve.client import ScoringClient
from repro.serve.engine import DEFAULT_MAX_BATCH
from repro.serve.server import DetectorServer


def build_fixture(devices_per_request: int):
    """Small-fixture detector + a request-sized fingerprint batch."""
    data = generate_experiment_data(PlatformConfig(n_chips=12, n_monte_carlo=40,
                                                  seed=5))
    detector = GoldenChipFreeDetector(
        DetectorConfig(kde_samples=2000, svm_max_training_samples=400, seed=11)
    )
    detector.fit_premanufacturing(data.sim_pcms, data.sim_fingerprints)
    detector.fit_silicon(data.dutt_pcms)
    reps = -(-devices_per_request // data.dutt_fingerprints.shape[0])
    batch = np.tile(data.dutt_fingerprints, (reps, 1))[:devices_per_request]
    return detector, batch


def run_load(url: str, batch: np.ndarray, clients: int, duration: float,
             boundaries: Optional[List[str]] = None) -> dict:
    """Drive the server with closed-loop clients; returns the measurements."""
    latencies: List[float] = []
    devices = [0]
    errors: List[BaseException] = []
    lock = threading.Lock()
    stop_at = time.perf_counter() + duration

    def client_loop():
        local_latencies = []
        local_devices = 0
        try:
            with ScoringClient(url, timeout=60.0) as client:
                while time.perf_counter() < stop_at:
                    start = time.perf_counter()
                    result = client.score(batch, boundaries=boundaries)
                    local_latencies.append(time.perf_counter() - start)
                    local_devices += result.n_devices
        except BaseException as error:
            with lock:
                errors.append(error)
            return
        with lock:
            latencies.extend(local_latencies)
            devices[0] += local_devices

    started = time.perf_counter()
    threads = [threading.Thread(target=client_loop) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    if not latencies:
        raise RuntimeError("no request completed within the measurement window")
    quantiles = np.percentile(np.asarray(latencies) * 1e3, [50, 95, 99])
    return {
        "requests": len(latencies),
        "devices": devices[0],
        "elapsed_s": elapsed,
        "throughput_dev_s": devices[0] / elapsed,
        "latency_ms": {
            "p50": float(quantiles[0]),
            "p95": float(quantiles[1]),
            "p99": float(quantiles[2]),
        },
    }


def batching(before: dict, after: dict) -> dict:
    """Requests and devices per scoring pass between two ``/metricz``
    snapshots."""
    passes = (after["histograms"]["serve.batch_size"]["count"]
              - before["histograms"]["serve.batch_size"]["count"])
    requests = (after["counters"]["serve.requests"]
                - before["counters"]["serve.requests"])
    devices = (after["histograms"]["serve.batch_size"]["total"]
               - before["histograms"]["serve.batch_size"]["total"])
    return {
        "scoring_passes": passes,
        "requests_per_pass": requests / passes,
        "devices_per_pass": devices / passes,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent closed-loop clients")
    parser.add_argument("--devices-per-request", type=int, default=64,
                        help="fingerprints per score request")
    parser.add_argument("--duration", type=float, default=3.0,
                        help="measurement window in seconds")
    parser.add_argument("--warmup", type=float, default=0.5,
                        help="untimed warm-up window in seconds")
    parser.add_argument("--boundary", action="append", default=None,
                        help="score only these boundaries (repeatable; "
                             "default: all five)")
    parser.add_argument("--max-batch", type=int, default=DEFAULT_MAX_BATCH,
                        help="server-side micro-batch size cap")
    parser.add_argument("--min-throughput", type=float, default=None,
                        help="exit 1 when devices/s lands below this gate")
    parser.add_argument("--output", type=str, default=None,
                        help="write the measurements to this JSON file")
    args = parser.parse_args(argv)

    print(f"fitting small-fixture detector "
          f"({args.devices_per_request} devices/request)...")
    detector, batch = build_fixture(args.devices_per_request)
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as scratch:
        bundle_path = os.path.join(scratch, "detector.npz")
        export_bundle(detector, bundle_path)
        with DetectorServer(bundle_path, port=0,
                            max_batch=args.max_batch) as server:
            with ScoringClient(server.url) as probe:
                probe.wait_ready()
                if args.warmup > 0:
                    run_load(server.url, batch, args.clients, args.warmup,
                             boundaries=args.boundary)
                before = probe.metrics()
                report = run_load(server.url, batch, args.clients,
                                  args.duration, boundaries=args.boundary)
                report["batching"] = batching(before, probe.metrics())

    report["config"] = {
        "clients": args.clients,
        "devices_per_request": args.devices_per_request,
        "duration_s": args.duration,
        "boundaries": args.boundary or ["B1", "B2", "B3", "B4", "B5"],
        "max_batch": args.max_batch,
    }
    print(f"{report['requests']} requests, {report['devices']} devices "
          f"in {report['elapsed_s']:.2f} s")
    print(f"throughput: {report['throughput_dev_s']:,.0f} devices/s")
    print("latency:    p50 {p50:.2f} ms  p95 {p95:.2f} ms  p99 {p99:.2f} ms"
          .format(**report["latency_ms"]))
    print("batching:   {requests_per_pass:.2f} requests and "
          "{devices_per_pass:.1f} devices per scoring pass"
          .format(**report["batching"]))

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")

    if args.min_throughput is not None:
        if report["throughput_dev_s"] < args.min_throughput:
            print(f"FAIL: {report['throughput_dev_s']:,.0f} devices/s below "
                  f"the {args.min_throughput:,.0f} devices/s gate",
                  file=sys.stderr)
            return 1
        print(f"gate passed: >= {args.min_throughput:,.0f} devices/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
