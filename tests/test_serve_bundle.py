"""Bundle format tests: round-trip bit-identity, versioning, integrity.

The acceptance bar for ``repro-bundle-v1`` is strict: a bundle written by
:func:`repro.serve.bundle.export_bundle` must reload — in this process or a
fresh one — into a detector whose decision scores and verdicts for every
boundary are **bit-identical** to the in-process original, and any file
that is not a well-formed, uncorrupted bundle of a supported schema version
must be rejected before it can produce a verdict.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.boundaries import TrustedRegion
from repro.core.pipeline import BOUNDARY_NAMES, GoldenChipFreeDetector
from repro.learn.mars import MarsRegression
from repro.serve import bundle
from repro.serve.bundle import (
    BundleError,
    BundleFormatError,
    BundleIntegrityError,
    export_bundle,
    load_bundle,
    read_bundle_header,
)
from tests.conftest import small_detector_config


@pytest.fixture(scope="module")
def bundle_path(fitted_detector, tmp_path_factory):
    """The small fitted detector exported once for the whole module."""
    path = tmp_path_factory.mktemp("bundles") / "detector.npz"
    export_bundle(fitted_detector, path)
    return str(path)


def _rewrite_bundle(src, dst, mutate_header=None, mutate_arrays=None):
    """Re-save a bundle with surgical header/payload mutations."""
    with np.load(src, allow_pickle=False) as archive:
        entries = {name: archive[name] for name in archive.files}
    if mutate_header is not None:
        header = json.loads(entries[bundle.HEADER_ENTRY].tobytes().decode("utf-8"))
        mutate_header(header)
        raw = json.dumps(header, sort_keys=True).encode("utf-8")
        entries[bundle.HEADER_ENTRY] = np.frombuffer(raw, dtype=np.uint8)
    if mutate_arrays is not None:
        mutate_arrays(entries)
    with open(dst, "wb") as handle:
        np.savez(handle, **entries)
    return str(dst)


def _export_edited(detector, path, monkeypatch, config=None, region_params=None):
    """Export ``detector`` with extra keys in its config / every region's params.

    Writes the states earlier library versions produced (or hostile ones);
    the payload digest is computed over the edited state, so the bundle
    passes the integrity check and reaches the decoder.
    """
    detector_state = GoldenChipFreeDetector.to_state
    region_state = TrustedRegion.to_state

    def edited_detector_state(self):
        state = detector_state(self)
        state["config"].update(config or {})
        return state

    def edited_region_state(self):
        state = region_state(self)
        state["params"].update(region_params or {})
        return state

    monkeypatch.setattr(GoldenChipFreeDetector, "to_state", edited_detector_state)
    monkeypatch.setattr(TrustedRegion, "to_state", edited_region_state)
    try:
        return export_bundle(detector, path).path
    finally:
        monkeypatch.undo()


class TestExport:
    def test_header_is_self_describing(self, bundle_path, fitted_detector):
        header = read_bundle_header(bundle_path)
        assert header["format"] == bundle.BUNDLE_FORMAT
        assert header["schema_version"] == bundle.BUNDLE_SCHEMA_VERSION
        assert len(header["digest"]) == 64
        assert header["detector"]["boundaries"] == sorted(fitted_detector.boundaries)
        assert header["detector"]["n_features"] == (
            fitted_detector.n_fingerprint_features_
        )
        assert "created" in header["provenance"]

    def test_export_returns_matching_info(self, fitted_detector, tmp_path):
        info = export_bundle(fitted_detector, tmp_path / "d.npz", note="t17")
        assert info.schema_version == bundle.BUNDLE_SCHEMA_VERSION
        assert info.digest == read_bundle_header(info.path)["digest"]
        assert read_bundle_header(info.path)["extra"] == {"note": "t17"}

    def test_unfitted_detector_is_rejected(self, tmp_path):
        with pytest.raises(BundleError, match="unfitted"):
            export_bundle(GoldenChipFreeDetector(), tmp_path / "d.npz")

    def test_export_is_atomic(self, fitted_detector, tmp_path):
        export_bundle(fitted_detector, tmp_path / "d.npz")
        leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".tmp-")]
        assert leftovers == []

    def test_detector_method_delegates(self, fitted_detector, tmp_path):
        info = fitted_detector.export_bundle(tmp_path / "d.npz")
        assert load_bundle(info.path).digest == info.digest


class TestRoundTrip:
    def test_bit_identical_scores_small_population(self, bundle_path,
                                                   fitted_detector,
                                                   experiment_data):
        restored = load_bundle(bundle_path).detector
        fingerprints = experiment_data.dutt_fingerprints
        expected = fitted_detector.decision_scores_batch(fingerprints)
        actual = restored.decision_scores_batch(fingerprints)
        assert set(actual) == set(BOUNDARY_NAMES)
        for name in BOUNDARY_NAMES:
            assert np.array_equal(actual[name], expected[name]), name

    def test_bit_identical_on_table1_population(self, full_experiment_data,
                                                tmp_path):
        """The acceptance population: all 120 table-1 DUTTs, B1..B5."""
        detector = GoldenChipFreeDetector(small_detector_config())
        detector.fit_premanufacturing(
            full_experiment_data.sim_pcms, full_experiment_data.sim_fingerprints
        )
        detector.fit_silicon(full_experiment_data.dutt_pcms)
        fingerprints = full_experiment_data.dutt_fingerprints
        assert fingerprints.shape[0] == 120

        restored = load_bundle(
            export_bundle(detector, tmp_path / "table1.npz").path
        ).detector
        expected = detector.decision_scores_batch(fingerprints)
        actual = restored.decision_scores_batch(fingerprints)
        for name in BOUNDARY_NAMES:
            assert np.array_equal(actual[name], expected[name]), name
            assert np.array_equal(
                restored.classify(fingerprints, boundary=name),
                detector.classify(fingerprints, boundary=name),
            ), name

    def test_bit_identical_in_fresh_process(self, bundle_path, fitted_detector,
                                            experiment_data, tmp_path):
        """Reload in a brand-new interpreter: scores must match exactly."""
        expected_path = tmp_path / "expected.npz"
        fingerprints = experiment_data.dutt_fingerprints
        np.savez(
            expected_path,
            fingerprints=fingerprints,
            **{name: scores for name, scores in
               fitted_detector.decision_scores_batch(fingerprints).items()},
        )
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.serve.bundle import load_bundle\n"
            "detector = load_bundle(sys.argv[1]).detector\n"
            "with np.load(sys.argv[2]) as data:\n"
            "    scores = detector.decision_scores_batch(data['fingerprints'])\n"
            "    bad = [n for n, s in scores.items()\n"
            "           if not np.array_equal(s, data[n])]\n"
            "sys.exit(f'score drift in {bad}' if bad else 0)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
            + os.pathsep + env.get("PYTHONPATH", "")
        )
        result = subprocess.run(
            [sys.executable, "-c", script, bundle_path, str(expected_path)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr

    def test_bundle_with_retired_keys_loads(self, fitted_detector,
                                            experiment_data, tmp_path,
                                            monkeypatch):
        """Bundles written before the engine/forward/method switches were retired.

        Their detector config carries ``"engine"``, ``"boundary_method"``
        and ``"regression_mode"``, every region's params carry ``"method"``
        and every MARS model's params carry ``"forward"``; all are dropped
        on load while they hold the one value still supported.
        """
        mars_state = MarsRegression.to_state

        def old_mars_state(self):
            state = mars_state(self)
            state["params"]["forward"] = "fast"
            return state

        monkeypatch.setattr(MarsRegression, "to_state", old_mars_state)
        path = _export_edited(
            fitted_detector, tmp_path / "old.npz", monkeypatch,
            config={"engine": "batched", "boundary_method": "ocsvm",
                    "regression_mode": "latent_gain"},
            region_params={"method": "ocsvm"},
        )

        restored = load_bundle(path).detector
        assert restored.config == fitted_detector.config
        fingerprints = experiment_data.dutt_fingerprints
        expected = fitted_detector.decision_scores_batch(fingerprints)
        for name, scores in restored.decision_scores_batch(fingerprints).items():
            assert np.array_equal(scores, expected[name]), name

    def test_unknown_config_key_still_rejected(self, fitted_detector):
        state = fitted_detector.to_state()
        state["config"]["flux_capacitor"] = True
        with pytest.raises(TypeError):
            GoldenChipFreeDetector.from_state(state)

    def test_restored_detector_is_inference_only(self, bundle_path,
                                                 experiment_data):
        restored = load_bundle(bundle_path).detector
        with pytest.raises(RuntimeError, match="inference-only"):
            restored.fit_silicon(experiment_data.dutt_pcms)

    def test_loaded_bundle_carries_identity(self, bundle_path):
        loaded = load_bundle(bundle_path)
        assert loaded.digest == read_bundle_header(bundle_path)["digest"]
        assert loaded.boundaries == sorted(BOUNDARY_NAMES)


class TestRejection:
    def test_unknown_schema_version(self, bundle_path, tmp_path):
        bad = _rewrite_bundle(
            bundle_path, tmp_path / "future.npz",
            mutate_header=lambda h: h.update(schema_version=99),
        )
        with pytest.raises(BundleFormatError, match="schema version 99"):
            load_bundle(bad)
        with pytest.raises(BundleFormatError, match="schema version 99"):
            read_bundle_header(bad)

    def test_wrong_format_name(self, bundle_path, tmp_path):
        bad = _rewrite_bundle(
            bundle_path, tmp_path / "alien.npz",
            mutate_header=lambda h: h.update(format="other-format-v1"),
        )
        with pytest.raises(BundleFormatError, match="not a repro-bundle-v1"):
            load_bundle(bad)

    def test_plain_npz_is_not_a_bundle(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez(path, weights=np.ones(4))
        with pytest.raises(BundleFormatError, match="__bundle__"):
            load_bundle(path)

    def test_non_npz_garbage(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"not a zip archive at all")
        with pytest.raises(BundleFormatError, match="unreadable"):
            load_bundle(path)

    def test_bit_flipped_payload(self, bundle_path, tmp_path):
        def corrupt(entries):
            name = sorted(n for n in entries
                          if n not in (bundle.HEADER_ENTRY, bundle.META_ENTRY)
                          and entries[n].size)[0]
            array = entries[name].copy()
            flat = array.reshape(-1)
            flat[0] = flat[0] + 1 if array.dtype.kind in "iu" else flat[0] + 1e-9
            entries[name] = array

        bad = _rewrite_bundle(bundle_path, tmp_path / "flipped.npz",
                              mutate_arrays=corrupt)
        with pytest.raises(BundleIntegrityError, match="digest mismatch"):
            load_bundle(bad)

    def test_truncated_file(self, bundle_path, tmp_path):
        raw = open(bundle_path, "rb").read()
        path = tmp_path / "truncated.npz"
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(BundleFormatError):
            load_bundle(path)

    def test_unknown_config_key(self, fitted_detector, tmp_path, monkeypatch):
        path = _export_edited(fitted_detector, tmp_path / "unknown.npz",
                              monkeypatch, config={"flux_capacitor": True})
        with pytest.raises(BundleFormatError, match="flux_capacitor"):
            load_bundle(path)

    @pytest.mark.parametrize("config, region_params, match", [
        ({"boundary_method": "mahalanobis"}, None, "boundary_method.*mahalanobis"),
        ({"regression_mode": "independent"}, None, "regression_mode.*independent"),
        (None, {"method": "mahalanobis"}, "method.*mahalanobis"),
    ])
    def test_retired_key_with_a_retired_value(self, fitted_detector, tmp_path,
                                              monkeypatch, config, region_params,
                                              match):
        path = _export_edited(fitted_detector, tmp_path / "retired.npz",
                              monkeypatch, config=config,
                              region_params=region_params)
        with pytest.raises(BundleFormatError, match=match):
            load_bundle(path)

    def test_elliptic_payload(self, bundle_path, tmp_path):
        """A boundary learner tagged ``elliptic`` (no longer a codec) is refused."""
        with np.load(bundle_path, allow_pickle=False) as archive:
            entries = {name: archive[name] for name in archive.files}
        meta = entries[bundle.META_ENTRY].tobytes()
        meta = meta.replace(b'"__obj__": "ocsvm"', b'"__obj__": "elliptic"')
        assert b'"elliptic"' in meta
        payload = {name: array for name, array in entries.items()
                   if name not in (bundle.HEADER_ENTRY, bundle.META_ENTRY)}
        digest = bundle.payload_digest(meta, payload)

        def retag(entries):
            entries[bundle.META_ENTRY] = np.frombuffer(meta, dtype=np.uint8)

        bad = _rewrite_bundle(bundle_path, tmp_path / "elliptic.npz",
                              mutate_header=lambda h: h.update(digest=digest),
                              mutate_arrays=retag)
        with pytest.raises(BundleFormatError, match="elliptic"):
            load_bundle(bad)

    def test_forged_digest(self, bundle_path, tmp_path):
        bad = _rewrite_bundle(
            bundle_path, tmp_path / "forged.npz",
            mutate_header=lambda h: h.update(digest="0" * 64),
        )
        with pytest.raises(BundleIntegrityError):
            load_bundle(bad)
