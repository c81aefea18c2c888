"""Train once, serve many: export a detector bundle and screen over HTTP.

The paper's deployment story splits in two: an offline stage that learns
the trusted regions (expensive — Monte Carlo simulation, KMM calibration,
five boundary fits), and a production-test stage that screens each
fabricated device in milliseconds.  ``repro.serve`` packages that split:

1. fit the golden chip-free detector and export it as a single
   ``repro-bundle-v1`` file (self-describing, digest-verified);
2. serve the bundle over a zero-dependency HTTP JSON API with
   micro-batching;
3. screen devices from any client — here the stdlib-only
   ``ScoringClient`` — and read the serving metrics.

Run:  python examples/serve_and_score.py
"""

import os
import tempfile

from repro import DetectorConfig, GoldenChipFreeDetector, PlatformConfig
from repro import generate_experiment_data
from repro.serve import DetectorServer, ScoringClient, load_bundle


def main() -> None:
    # 1. Offline: fit the detector (no golden chips anywhere) ...
    data = generate_experiment_data(PlatformConfig())
    detector = GoldenChipFreeDetector(DetectorConfig(kde_samples=30_000))
    detector.fit_premanufacturing(data.sim_pcms, data.sim_fingerprints)
    detector.fit_silicon(data.dutt_pcms)

    with tempfile.TemporaryDirectory() as scratch:
        # ... and freeze it into one exportable artifact.
        bundle_path = os.path.join(scratch, "detector.npz")
        info = detector.export_bundle(bundle_path)
        print(f"exported {os.path.basename(bundle_path)} "
              f"(schema v{info.schema_version}, digest {info.digest[:12]}...)")

        # The bundle stands alone: any process can verify and reload it.
        restored = load_bundle(bundle_path)
        print(f"bundle carries boundaries {', '.join(restored.boundaries)}")

        # 2. Production test: serve the bundle over HTTP.  port=0 picks a
        # free port; micro-batching coalesces concurrent requests.
        with DetectorServer(restored, port=0) as server, \
                ScoringClient(server.url) as client:
            client.wait_ready()
            print(f"serving at {server.url}")

            # 3. Screen every device under Trojan test against B5.
            result = client.score(data.dutt_fingerprints, boundaries=["B5"])
            flagged = int((~result.verdicts["B5"]).sum())
            print(f"B5 flags {flagged} of {result.n_devices} devices "
                  f"as Trojan-infested")

            # The service keeps score too.
            counters = client.metrics()["counters"]
            print(f"server counters: {counters['serve.requests']:.0f} "
                  f"request(s), {counters['serve.devices_scored']:.0f} "
                  f"device(s) scored")


if __name__ == "__main__":
    main()
