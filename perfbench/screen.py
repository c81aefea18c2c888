"""Workloads ``screen-line`` and ``screen-lot``: Trojan screening over HTTP.

Preparation (untimed): calibrate the paper-sized detector on the display
lot (platform seed 16, detector seed 11, M' = 3e4), export it as a
``repro-bundle-v1`` file, synthesize a fresh lot of devices under Trojan
test from the workload seed, and score that population in-process with
``decision_scores_batch`` as the reference.  The served detector is fixed
so that its support-vector count, which sets the scoring cost, does not
change with the seed.

The server runs in its own process (``serve_launcher.py``).  Closed-loop
client threads, each a tester site with one connection at a time, send
requests through ``repro.serve.client.ScoringClient`` and wait for each
verdict before sending the next.  Every response is checked against the
in-process reference on the same rows.

* ``screen-line``: one tester site; one device per request, scored
  against B5 only.
* ``screen-lot``: two tester sites; 1024-device lots scored against all
  five boundaries.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import subprocess
import sys
import threading
import time
import traceback
import urllib.error
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

import harness
from spans import CLIENT_TARGETS, Recorder, total

LAUNCHER = os.path.join(harness.BENCH_DIR, "serve_launcher.py")
#: Server launches timed for ``setup_s`` (the median is reported); the
#: last one serves the measured traffic.
SETUP_REPEATS = 3
#: Chips in the screened lot: 3 design versions each, 1026 devices.
POPULATION_CHIPS = 342
#: The screened lot is platform seed ``POPULATION_SEED_BASE + seed``.
POPULATION_SEED_BASE = 10_000
REQUEST_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Traffic:
    """What one workload's clients send."""

    devices: int
    boundaries: Tuple[str, ...]
    #: Closed-loop clients.  Two 1-device clients plus the server's threads
    #: outnumber the two cores of the reference machine, and then the tail
    #: of ``screen-line`` times the scheduler: under load from other
    #: tenants its p50 swung 45% and its p90 2.4x between runs of the same
    #: code, against 6% and 1.6x with one client.  Two 1024-device clients
    #: keep the server busy and were the steadier choice for ``screen-lot``.
    clients: int
    #: A tail percentile with at least ten samples beyond it in each of
    #: ``tail_slices`` time slices of a 30 s run.
    tail_percentile: int
    tail_slices: int


KINDS: Dict[str, Traffic] = {
    "screen-line": Traffic(1, ("B5",), 1, 90, 10),
    "screen-lot": Traffic(1024, ("B1", "B2", "B3", "B4", "B5"), 2, 90, 5),
}


class Fixture:
    """The served bundle, the screened population and its reference scores."""

    def __init__(self, seed: int):
        from repro.core.config import DetectorConfig
        from repro.core.pipeline import GoldenChipFreeDetector
        from repro.experiments.platformcfg import (
            PlatformConfig,
            generate_experiment_data,
        )

        data = generate_experiment_data(
            PlatformConfig(seed=harness.DISPLAY_PLATFORM_SEED)
        )
        detector = GoldenChipFreeDetector(DetectorConfig(
            kde_samples=harness.KDE_SAMPLES, seed=harness.DISPLAY_DETECTOR_SEED
        ))
        detector.fit_premanufacturing(data.sim_pcms, data.sim_fingerprints)
        detector.fit_silicon(data.dutt_pcms)
        os.makedirs(harness.WORK_DIR, exist_ok=True)
        self.bundle_path = os.path.join(harness.WORK_DIR, f"bundle-{os.getpid()}.npz")
        detector.export_bundle(self.bundle_path)
        self.population_seed = POPULATION_SEED_BASE + seed
        lot = generate_experiment_data(
            PlatformConfig(seed=self.population_seed, n_chips=POPULATION_CHIPS)
        )
        self.population = lot.dutt_fingerprints
        self.expected = detector.decision_scores_batch(self.population)
        self.n_support = sum(region.svm.support_vectors_.shape[0]
                             for region in detector.boundaries.values())

    def matches(self, result, rows, names) -> bool:
        """Whether a response agrees with the in-process reference rows."""
        if result.n_devices != len(rows) or set(result.scores) != set(names):
            return False
        for name in names:
            want = self.expected[name][rows]
            got = result.scores[name]
            if (got.shape != want.shape
                    or not np.array_equal(result.verdicts[name], want >= 0.0)
                    or not np.allclose(got, want, rtol=1e-9, atol=1e-12)):
                return False
        return True

    def remove(self) -> None:
        """Delete the bundle file (and the work directory once empty)."""
        try:
            os.remove(self.bundle_path)
            os.rmdir(harness.WORK_DIR)
        except OSError:
            pass


class ServerProcess:
    """One launcher process; spawn to ``/readyz`` 200 is its set-up time."""

    def __init__(self, bundle_path: str):
        from repro.serve.client import ScoringClient

        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, LAUNCHER, bundle_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=harness.ROOT, env=harness.child_env(),
        )
        try:
            line = self._line(timeout=120.0)
            if not line.startswith("port "):
                raise RuntimeError(f"server launcher said {line!r}")
            self.url = f"http://127.0.0.1:{int(line.split()[1])}"
            client = ScoringClient(self.url, timeout=5.0)
            deadline = start + 120.0
            while not client.ready():
                if time.perf_counter() > deadline:
                    raise TimeoutError("server never became ready")
                time.sleep(0.002)
            self.setup_s = time.perf_counter() - start
        except BaseException:
            self.kill()
            raise

    def _line(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise TimeoutError("server launcher did not answer")
        return self.proc.stdout.readline()

    def command(self, word: str) -> None:
        """Send ``trace`` or ``untrace`` (no request in flight) and await
        the launcher's acknowledgement."""
        self.proc.stdin.write(word + "\n")
        self.proc.stdin.flush()
        if self._line(timeout=30.0).strip() != "ok " + word:
            raise RuntimeError(f"server launcher did not acknowledge {word!r}")

    def stop(self) -> dict:
        """End serving; returns the launcher's report."""
        self.proc.stdin.close()
        watchdog = threading.Timer(60.0, self.proc.kill)
        watchdog.start()
        try:
            output = self.proc.stdout.read()
            code = self.proc.wait()
        finally:
            watchdog.cancel()
            self.proc.stdout.close()
        reports = [line[len("report "):] for line in output.splitlines()
                   if line.startswith("report ")]
        if code != 0 or not reports:
            raise RuntimeError(f"server launcher exited with code {code}")
        return json.loads(reports[-1])

    def kill(self) -> None:
        """Stop the process unconditionally and reap it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                try:
                    stream.close()
                except OSError:
                    pass


def _cause(error: Exception) -> str:
    from repro.serve.client import ServerError

    if isinstance(error, ServerError):
        if error.status == 429:
            return "backpressure_429"
        return "http_4xx" if 400 <= error.status < 500 else "http_5xx"
    if isinstance(error, urllib.error.URLError):
        return "timeout" if isinstance(error.reason, TimeoutError) else "connection_error"
    if isinstance(error, TimeoutError):
        return "timeout"
    if isinstance(error, (OSError, http.client.HTTPException)):
        return "connection_error"
    traceback.print_exception(error, file=sys.stderr)
    return "exception"


def _client(url, fixture, traffic, deadline, rng, outcomes, recorder) -> None:
    from repro.serve.client import ScoringClient

    client = ScoringClient(url, timeout=REQUEST_TIMEOUT_S)
    n = fixture.population.shape[0]
    while time.perf_counter() < deadline:
        op = recorder.open("op") if recorder else None
        try:
            rows = rng.choice(n, size=traffic.devices, replace=False)
            start = time.perf_counter()
            try:
                result = client.score(fixture.population[rows],
                                      boundaries=traffic.boundaries)
            except Exception as error:
                outcomes.fail(_cause(error))
                continue
            elapsed = time.perf_counter() - start
            if fixture.matches(result, rows, traffic.boundaries):
                outcomes.ok(elapsed, len(rows))
            else:
                outcomes.fail("wrong_verdict")
        finally:
            if op is not None:
                recorder.close(op)


def _drive(url, fixture, traffic, deadline, rng_key, recorder=None):
    """Run the closed-loop clients until ``deadline``; (outcomes, start, window)."""
    outcomes = [harness.Outcomes() for _ in range(traffic.clients)]
    start = time.perf_counter()
    threads = [
        threading.Thread(
            target=_client, name=f"tester-{i}",
            args=(url, fixture, traffic, deadline,
                  np.random.default_rng([*rng_key, i]), outcomes[i], recorder),
        )
        for i in range(traffic.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    window = time.perf_counter() - start
    merged = harness.Outcomes()
    for part in outcomes:
        merged.merge(part)
    return merged, start, window


def _layers(recorder, server_report, fixture, traced, untraced, window) -> dict:
    server = server_report["layers"]
    requests = server["requests"]
    matched = max(server["matched"], 1)
    client_ms = 1e3 * total(recorder.named("serve.client.request")) / requests
    handle_ms = 1e3 * server["handle_s"] / requests
    return {
        "serve.bundle.load_ms": 1e3 * server_report["bundle_load_s"],
        "serve.http.handle_ms": handle_ms,
        "serve.http.overhead_ms": 1e3 * server["overhead_s"] / requests,
        "serve.transport_ms": client_ms - handle_ms,
        "serve.batcher.wait_ms": 1e3 * server["wait_s"] / matched,
        "serve.batcher.batch_devices": server["score_rows"] / server["score_calls"],
        "serve.batcher.requests_per_batch": server["submits"] / server["score_calls"],
        "serve.engine.validate_ms": 1e3 * server["validate_s"] / server["submits"],
        "serve.engine.score_ms": 1e3 * server["score_s"] / matched,
        "core.boundaries.decision_ms": 1e3 * server["decision_s"] / matched,
        "learn.ocsvm.n_support": float(fixture.n_support),
        "trace.coverage": (total(recorder.named("serve.client.request"))
                           / total(recorder.named("op"))),
        "trace.overhead": (traced.latency_ms(50, window)
                           / untraced.latency_ms(50, window)),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one screening workload; returns outcomes, metrics and report."""
    traffic = KINDS[workload]
    harness.quiet_program()
    fixture = Fixture(seed)
    from repro.serve.client import ScoringClient

    server = None
    setups = []
    try:
        for _ in range(0 if trace else SETUP_REPEATS - 1):
            probe = ServerProcess(fixture.bundle_path)
            setups.append(probe.setup_s)
            probe.stop()
        server = ServerProcess(fixture.bundle_path)
        setups.append(server.setup_s)

        if not trace:
            outcomes, start, window = _drive(server.url, fixture, traffic,
                                             time.perf_counter() + seconds, (seed, 0))
        else:
            untraced, outcomes = harness.Outcomes(), harness.Outcomes()
            recorder = Recorder()
            window = 0.0
            for k, (untraced_end, traced_end) in enumerate(
                    harness.trace_slices(time.perf_counter(), seconds)):
                part, _, _ = _drive(server.url, fixture, traffic, untraced_end,
                                 (seed, 2 * k))
                untraced.merge(part)
                server.command("trace")
                recorder.install(CLIENT_TARGETS)
                try:
                    part, _, elapsed = _drive(server.url, fixture, traffic, traced_end,
                                           (seed, 2 * k + 1), recorder)
                finally:
                    recorder.uninstall()
                    server.command("untrace")
                outcomes.merge(part)
                window += elapsed
        metricz = ScoringClient(server.url).metrics()
        server_report = server.stop()
        server = None
    finally:
        if server is not None:
            server.kill()
        fixture.remove()

    report = {
        "population_seed": fixture.population_seed,
        "population_devices": int(fixture.population.shape[0]),
        "server_peak_rss_mb": server_report["peak_rss_mb"],
    }
    if not trace:
        metrics = outcomes.end_to_end(start, window, traffic.tail_percentile,
                                      traffic.tail_slices, setups,
                                      server_report["peak_rss_mb"])
        report["setup_samples_s"] = setups
        report["tail_slices_ms"] = outcomes.slice_latencies_ms(
            traffic.tail_percentile, start, window, traffic.tail_slices)
    else:
        layers = server_report["layers"]
        metrics = _layers(recorder, server_report, fixture, outcomes, untraced, window)
        report["server_spans_matched"] = (layers["matched"], layers["submits"])
        if workload == "screen-lot":
            calls = layers["score_calls"]
            report["reconcile"] = [(
                "serve_batch", "serve.engine.score", 1e3 * layers["score_call_s"] / calls,
                f"2048 x 5 classify_batch vs "
                f"{layers['score_rows'] / calls:.0f} x 5 score call",
            )]
        outcomes.merge(untraced)

    # The server's own latency histogram times ScoringEngine.score per
    # batch; the client times whole HTTP requests.
    served = metricz["histograms"].get("serve.latency_ms", {})
    finite = [s for s in outcomes.latencies_s if s != float("inf")]
    report["metricz_latency"] = {
        "server_count": served.get("count"),
        "server_total_ms": served.get("total"),
        "server_mean_ms": served.get("mean"),
        "client_count": len(finite),
        "client_mean_ms": 1e3 * sum(finite) / max(len(finite), 1),
    }
    return {
        "outcomes": outcomes,
        "window_s": window,
        "tail_percentile": traffic.tail_percentile,
        "tail_slices": traffic.tail_slices,
        "checks": [],
        "metrics": metrics,
        "report": report,
    }
