"""Run manifests: round-trip and schema validation."""

import json

import pytest

from repro.obs import manifest as m
from repro.obs.trace import Span


def _sample_manifest() -> m.RunManifest:
    return m.RunManifest(
        run_id="20260101-000000-00001",
        command="table1",
        created="2026-01-01T00:00:00+0000",
        argv=["table1", "--trace"],
        environment=m.collect_environment(),
        git={"revision": "deadbeef", "dirty": False},
        config={"seed": 16, "chips": 40, "kde_samples": 30000},
        seeds={"experiment": 16},
        metrics={"counters": {"mc.devices_simulated": 100.0},
                 "gauges": {}, "histograms": {}},
        spans=[
            Span("table1", 1, None, 100.0, wall=2.0, cpu=1.9).to_dict(),
            Span("mc.run", 2, 1, 100.1, wall=1.0, cpu=0.9,
                 attributes={"n": 100}).to_dict(),
        ],
        results={"matches_paper_shape": True},
    )


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        manifest = _sample_manifest()
        path = m.write_manifest(manifest, str(tmp_path / "run"))
        assert path.endswith("manifest.json")
        loaded = m.load_manifest(path)
        assert loaded == manifest

    def test_load_accepts_run_directory(self, tmp_path):
        manifest = _sample_manifest()
        run_dir = str(tmp_path / "run")
        m.write_manifest(manifest, run_dir)
        assert m.load_manifest(run_dir).run_id == manifest.run_id

    def test_span_objects_reconstruct(self):
        spans = _sample_manifest().span_objects()
        assert [s.name for s in spans] == ["table1", "mc.run"]
        assert spans[1].parent_id == spans[0].span_id
        assert spans[1].attributes == {"n": 100}

    def test_config_and_seeds_survive(self, tmp_path):
        manifest = _sample_manifest()
        m.write_manifest(manifest, str(tmp_path))
        loaded = m.load_manifest(str(tmp_path))
        assert loaded.config == manifest.config
        assert loaded.seeds == manifest.seeds


class TestValidation:
    def test_sample_manifest_validates(self):
        assert m.validate(_sample_manifest().to_dict()) == []

    def test_packaged_schema_loads(self):
        schema = m.load_schema()
        assert schema["type"] == "object"
        assert "run_id" in schema["required"]

    def test_missing_required_field_fails(self):
        data = _sample_manifest().to_dict()
        del data["run_id"]
        errors = m.validate(data)
        assert any("run_id" in error for error in errors)

    def test_wrong_type_fails(self):
        data = _sample_manifest().to_dict()
        data["spans"] = "not-a-list"
        errors = m.validate(data)
        assert any("spans" in error for error in errors)

    def test_bad_span_entry_fails(self):
        data = _sample_manifest().to_dict()
        del data["spans"][0]["wall"]
        errors = m.validate(data)
        assert any("spans[0]" in error for error in errors)

    def test_written_file_is_valid_json(self, tmp_path):
        path = m.write_manifest(_sample_manifest(), str(tmp_path))
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        assert m.validate(data) == []


class TestEnvironment:
    def test_collect_environment_reports_versions(self):
        env = m.collect_environment()
        assert env["versions"]["python"]
        assert env["versions"]["numpy"]

    def test_git_revision_in_repo(self):
        info = m.git_revision()
        if info is None:
            pytest.skip("not running inside a git repository")
        assert len(info["revision"]) == 40

    def test_new_run_ids_are_strings(self):
        run_id = m.new_run_id()
        assert isinstance(run_id, str) and len(run_id) > 10
