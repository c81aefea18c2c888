"""Server process of the ``screen-*`` workloads.

Usage: ``python3 perfbench/serve_launcher.py BUNDLE``

Loads the bundle, starts a :class:`repro.serve.server.DetectorServer` with
the ``repro.cli serve`` defaults on an ephemeral port and prints
``port N``.  Then it reads commands on stdin:

* ``trace`` / ``untrace`` — install or remove the benchmark's span
  wrappers around the serving layers; answered by ``ok trace`` /
  ``ok untrace``;
* end of input — stop serving and print ``report {json}``: the process's
  peak RSS, the time ``load_bundle`` took and, when traced, the per-request
  layer figures.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import harness
from spans import SERVER_TARGETS, Recorder, server_layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bundle")
    args = parser.parse_args(argv)

    harness.use_program_source()
    harness.quiet_program()
    from repro.serve.bundle import load_bundle
    from repro.serve.server import DetectorServer

    start = time.perf_counter()
    loaded = load_bundle(args.bundle)
    load_s = time.perf_counter() - start
    server = DetectorServer(loaded).start()
    print(f"port {server.port}", flush=True)

    recorder = Recorder()
    traced = False
    try:
        for line in sys.stdin:
            word = line.strip()
            if word == "trace":
                recorder.install(SERVER_TARGETS)
                traced = True
            elif word == "untrace":
                recorder.uninstall()
            else:
                continue
            print("ok " + word, flush=True)
    finally:
        server.stop()
    report = {"peak_rss_mb": harness.self_peak_rss_mb(), "bundle_load_s": load_s}
    if traced:
        report["layers"] = server_layers(recorder)
    print("report " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
