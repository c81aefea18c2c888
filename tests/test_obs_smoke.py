"""End-to-end observability smoke test (the ``make smoke-obs`` target).

Runs the real CLI with ``--trace`` on a small fixture and checks the whole
chain: manifest written, schema-valid, stage spans covering >= 90% of the
run's wall time, metrics populated, and the ``report`` command rendering
it all.
"""

import json
import os

import pytest

from repro.cli import main
from repro.obs import manifest as obs_manifest
from repro.obs.report import render_report, stage_coverage
from repro.benchreport import write_run_artifacts

#: Small-fixture arguments shared with tests/test_cli.py.
FAST = ["--chips", "10", "--kde-samples", "1500"]


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    run_dir = str(tmp_path_factory.mktemp("runs") / "smoke")
    status = main(["table1", "--trace", "--run-dir", run_dir, *FAST])
    assert status == 0
    return run_dir


class TestTracedTable1:
    def test_manifest_validates_against_packaged_schema(self, traced_run):
        manifest = obs_manifest.load_manifest(traced_run)
        assert obs_manifest.validate(manifest.to_dict()) == []

    def test_manifest_records_the_run(self, traced_run):
        manifest = obs_manifest.load_manifest(traced_run)
        assert manifest.command == "table1"
        assert manifest.config["chips"] == 10
        assert manifest.seeds == {"experiment": 16}
        assert manifest.environment["versions"]["python"]
        assert manifest.results["boundaries"]["B5"]["fp_count"] == 0

    def test_stage_spans_cover_90_percent_of_wall_time(self, traced_run):
        manifest = obs_manifest.load_manifest(traced_run)
        spans = manifest.span_objects()
        roots = [s for s in spans if s.parent_id is None]
        assert [s.name for s in roots] == ["table1"]
        assert stage_coverage(spans) >= 0.9

    def test_expected_stages_and_metrics_present(self, traced_run):
        manifest = obs_manifest.load_manifest(traced_run)
        names = {s.name for s in manifest.span_objects()}
        for stage in ("platform.generate_data", "mc.run",
                      "pipeline.fit_premanufacturing", "pipeline.fit_silicon",
                      "pipeline.evaluate", "kde.fit", "ocsvm.fit", "kmm.fit",
                      "mars.fit"):
            assert stage in names, f"missing span {stage}"
        counters = manifest.metrics["counters"]
        assert counters["mc.devices_simulated"] == 100.0
        assert counters["campaign.devices_measured"] == 30.0 + 100.0
        assert "ocsvm.iterations" in manifest.metrics["histograms"]

    def test_report_command_renders(self, traced_run, capsys):
        assert main(["report", traced_run]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "stage coverage of run wall time" in out
        assert "mc.devices_simulated" in out

    def test_render_report_api(self, traced_run):
        rendered = render_report(obs_manifest.load_manifest(traced_run))
        assert "pipeline.fit_silicon" in rendered

    def test_manifest_with_span_worker_fields_still_renders(self, traced_run,
                                                            tmp_path, capsys):
        """Manifests from versions that fitted boundaries in a process pool
        carry ``"worker": null`` on every span; they load, validate and
        render as before."""
        with open(os.path.join(traced_run, "manifest.json"),
                  encoding="utf-8") as handle:
            data = json.load(handle)
        for recorded in data["spans"]:
            recorded["worker"] = None
        old_run = tmp_path / "old"
        old_run.mkdir()
        (old_run / "manifest.json").write_text(json.dumps(data))
        manifest = obs_manifest.load_manifest(str(old_run))
        assert obs_manifest.validate(manifest.to_dict()) == []
        assert obs_manifest.validate(data) == []
        assert render_report(manifest) == render_report(
            obs_manifest.load_manifest(traced_run)
        )
        assert main(["report", str(old_run)]) == 0
        assert "pipeline.fit_silicon" in capsys.readouterr().out

    def test_manifest_with_cache_block_still_renders(self, traced_run,
                                                     tmp_path, capsys):
        """Manifests from versions with the artifact cache carry a filled
        ``cache`` block and ``cache``/``no_cache`` config keys; they load,
        validate and render as before."""
        with open(os.path.join(traced_run, "manifest.json"),
                  encoding="utf-8") as handle:
            data = json.load(handle)
        data["config"].update(cache=True, no_cache=False)
        data["cache"] = {
            "enabled": True,
            "root": ".repro-cache",
            "max_bytes": 2 * 1024 ** 3,
            "session": {
                "hits": 3, "misses": 7, "bytes_read": 4096,
                "bytes_written": 65536, "evictions": 0, "corrupt_entries": 0,
                "stages": {"mc": {"hits": 1, "misses": 0, "stores": 0},
                           "boundary": {"hits": 0, "misses": 5, "stores": 5}},
            },
        }
        old_run = tmp_path / "old"
        old_run.mkdir()
        (old_run / "manifest.json").write_text(json.dumps(data))
        assert obs_manifest.validate(data) == []
        manifest = obs_manifest.load_manifest(str(old_run))
        assert obs_manifest.validate(manifest.to_dict()) == []
        assert render_report(manifest) == render_report(
            obs_manifest.load_manifest(traced_run)
        )
        assert main(["report", str(old_run)]) == 0
        assert "pipeline.fit_silicon" in capsys.readouterr().out


class TestBenchSink:
    def test_bench_artifacts_share_sink_format(self, tmp_path):
        report = {"schema": 1, "units": "seconds",
                  "results": {"kde_density": 0.012, "ocsvm_fit": 0.034}}
        run_dir = str(tmp_path / "bench-run")
        path = write_run_artifacts(report, run_dir, ["--run-dir", run_dir])
        manifest = obs_manifest.load_manifest(path)
        assert obs_manifest.validate(manifest.to_dict()) == []
        assert manifest.command == "bench"
        assert manifest.results == report["results"]
