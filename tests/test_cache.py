"""Content-addressed artifact cache: keys, codec, store semantics, pipeline.

The load-bearing guarantees under test:

* keys are stable across processes and sensitive to every semantic input;
* registered model classes round-trip through the npz codec with bitwise
  identical predictions;
* the store is safe: LRU eviction respects the byte cap, corrupt entries
  fall back to recompute (never a crash, never a wrong answer);
* a warm table1 run is bit-identical to a cold run and to a cache-off run.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro import cache as artifact_cache
from repro.cache import (
    MISS,
    ArtifactCache,
    CacheKeyError,
    canonicalize,
    digest_array,
    make_key,
)
from repro.cache import codec


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(str(tmp_path / "cache"))


class TestKeys:
    def test_deterministic_in_process(self):
        parts = {"seed": 7, "nm": 6, "scale": 0.1}
        assert make_key("mc", parts) == make_key("mc", parts)

    def test_sensitive_to_every_component(self):
        base = make_key("mc", {"seed": 7}, version=1)
        assert make_key("mc", {"seed": 8}, version=1) != base
        assert make_key("dutt", {"seed": 7}, version=1) != base
        assert make_key("mc", {"seed": 7}, version=2) != base

    def test_order_independent_dicts(self):
        assert make_key("s", {"a": 1, "b": 2}) == make_key("s", {"b": 2, "a": 1})

    def test_tuple_and_list_equivalent(self):
        assert make_key("s", {"v": (1, 2)}) == make_key("s", {"v": [1, 2]})

    def test_numpy_scalars_match_python(self):
        assert make_key("s", {"n": np.int64(3), "x": np.float64(0.1)}) == \
            make_key("s", {"n": 3, "x": 0.1})

    def test_nan_is_stable(self):
        assert make_key("s", {"x": float("nan")}) == make_key("s", {"x": float("nan")})
        assert canonicalize(float("nan")) == {"__float__": "nan"}

    def test_array_content_addressing(self):
        a = np.arange(12.0).reshape(3, 4)
        assert digest_array(a) == digest_array(a.copy())
        assert digest_array(a) != digest_array(a.T)          # shape/layout
        assert digest_array(a) != digest_array(a.astype(np.float32))
        b = a.copy()
        b[0, 0] += 1e-12
        assert digest_array(a) != digest_array(b)

    def test_unstable_values_rejected(self):
        with pytest.raises(CacheKeyError):
            make_key("s", {"f": lambda: None})
        with pytest.raises(CacheKeyError):
            make_key("s", {1: "non-string key"})
        with pytest.raises(CacheKeyError):
            make_key("bad/stage", {})

    def test_stable_across_processes(self):
        """The same parts must hash identically in a fresh interpreter."""
        parts_src = ("{'seed': 7, 'nm': 6, 'drift': 0.05, "
                     "'arr': __import__('numpy').arange(6.0)}")
        script = (
            "from repro.cache import make_key\n"
            f"print(make_key('mc', {parts_src}, version=3))\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, cwd=os.path.join(os.path.dirname(__file__), ".."),
            check=True,
        )
        local = make_key("mc", {"seed": 7, "nm": 6, "drift": 0.05,
                                "arr": np.arange(6.0)}, version=3)
        assert out.stdout.strip() == local


class TestCodec:
    def test_plain_tree_round_trip(self, cache):
        value = {
            "pcms": np.arange(20.0).reshape(4, 5),
            "names": ["a", "b"],
            "shape": (4, 5),
            "flags": {"ok": True, "count": 3, "ratio": 0.25, "none": None},
        }
        cache.store("t", "k" * 32, value)
        loaded = cache.load("t", "k" * 32)
        assert loaded is not MISS
        np.testing.assert_array_equal(loaded["pcms"], value["pcms"])
        assert loaded["names"] == value["names"]
        assert loaded["shape"] == (4, 5)          # tuples survive
        assert loaded["flags"] == value["flags"]

    def test_cached_none_is_not_a_miss(self, cache):
        cache.store("t", "n" * 32, None)
        assert cache.load("t", "n" * 32) is None

    def test_unregistered_object_rejected(self, cache):
        with pytest.raises(codec.CacheCodecError):
            cache.store("t", "o" * 32, object())

    def test_mars_round_trip(self, cache):
        from repro.learn.mars import MarsRegression

        rng = np.random.default_rng(0)
        x = rng.standard_normal((120, 3))
        y = np.maximum(x[:, 0] - 0.2, 0.0) + 0.5 * x[:, 1] + 0.01 * rng.standard_normal(120)
        model = MarsRegression(max_terms=12).fit(x, y)
        cache.store("m", "m" * 32, model)
        loaded = cache.load("m", "m" * 32)
        np.testing.assert_array_equal(loaded.predict(x), model.predict(x))
        assert loaded.gcv_ == model.gcv_

    def test_multi_output_mars_round_trip(self, cache):
        from repro.learn.mars import MultiOutputMars

        rng = np.random.default_rng(1)
        x = rng.standard_normal((100, 2))
        y = np.column_stack([x[:, 0] ** 2, np.abs(x[:, 1])])
        model = MultiOutputMars(max_terms=8).fit(x, y)
        cache.store("m", "p" * 32, model)
        loaded = cache.load("m", "p" * 32)
        np.testing.assert_array_equal(loaded.predict(x), model.predict(x))

    def test_trusted_region_round_trip(self, cache):
        from repro.core.boundaries import TrustedRegion

        rng = np.random.default_rng(2)
        train = rng.standard_normal((300, 4))
        probe = rng.standard_normal((50, 4))
        region = TrustedRegion(name="B1", nu=0.08, seed=0).fit(train)
        cache.store("boundary", "b" * 32, region)
        loaded = cache.load("boundary", "b" * 32)
        np.testing.assert_array_equal(
            loaded.predict_trojan_free(probe), region.predict_trojan_free(probe)
        )
        np.testing.assert_array_equal(
            loaded.decision_scores(probe), region.decision_scores(probe)
        )

    def test_whitener_and_ocsvm_round_trip(self, cache):
        from repro.learn.ocsvm import OneClassSvm
        from repro.stats.preprocessing import Whitener

        rng = np.random.default_rng(3)
        train = rng.standard_normal((200, 3)) * np.array([1.0, 5.0, 0.2])
        probe = rng.standard_normal((40, 3))
        whitener = Whitener().fit(train)
        svm = OneClassSvm(nu=0.1, seed=0).fit(whitener.transform(train))
        cache.store("w", "w" * 32, {"whitener": whitener, "svm": svm})
        loaded = cache.load("w", "w" * 32)
        np.testing.assert_array_equal(
            loaded["whitener"].transform(probe), whitener.transform(probe)
        )
        np.testing.assert_array_equal(
            loaded["svm"].decision_function(whitener.transform(probe)),
            svm.decision_function(whitener.transform(probe)),
        )


class TestStore:
    def test_miss_then_hit(self, cache):
        calls = []

        def compute():
            calls.append(1)
            return {"x": np.ones(4)}

        first = cache.get_or_compute("s", {"seed": 1}, compute)
        second = cache.get_or_compute("s", {"seed": 1}, compute)
        assert len(calls) == 1
        np.testing.assert_array_equal(first["x"], second["x"])
        counts = cache.session.stage("s")
        assert counts.misses == 1 and counts.hits == 1 and counts.stores == 1

    def test_disabled_cache_is_pass_through(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), enabled=False)
        calls = []
        for _ in range(2):
            cache.get_or_compute("s", {}, lambda: calls.append(1))
        assert len(calls) == 2
        assert not os.path.isdir(os.path.join(str(tmp_path), "s"))

    def test_lru_eviction_under_small_cap(self, tmp_path):
        payload = {"x": np.arange(4096.0)}          # ~32 KiB per entry
        cache = ArtifactCache(str(tmp_path / "c"), max_bytes=100 * 1024)
        for i in range(8):
            cache.store("s", f"{i:032d}", payload)
            # Distinct mtimes so LRU order is well defined on coarse clocks.
            path = cache._entry_path("s", f"{i:032d}")
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
        cache._evict_over_cap()
        stats = cache.disk_stats()
        assert stats["bytes"] <= cache.max_bytes
        assert cache.session.evictions > 0
        # The oldest entries were evicted, the newest survive.
        assert cache.load("s", f"{0:032d}") is MISS
        assert cache.load("s", f"{7:032d}") is not MISS

    def test_hit_refreshes_lru_recency(self, tmp_path):
        payload = {"x": np.arange(4096.0)}
        cache = ArtifactCache(str(tmp_path / "c"), max_bytes=10**9)
        for i in range(4):
            cache.store("s", f"{i:032d}", payload)
            os.utime(cache._entry_path("s", f"{i:032d}"),
                     (1_000_000 + i, 1_000_000 + i))
        assert cache.load("s", f"{0:032d}") is not MISS  # touch the oldest
        cache.max_bytes = 80 * 1024                      # now force eviction
        cache._evict_over_cap()
        assert cache.load("s", f"{0:032d}") is not MISS  # survived: recently used
        assert cache.load("s", f"{1:032d}") is MISS      # evicted instead

    def test_corrupted_entry_recovers_by_recompute(self, cache):
        key = "c" * 32
        cache.store("s", key, {"x": np.ones(8)})
        path = cache._entry_path("s", key)
        with open(path, "wb") as handle:
            handle.write(b"this is not an npz archive")
        assert cache.load("s", key) is MISS
        assert cache.session.corrupt_entries == 1
        assert not os.path.exists(path)                  # dropped on read
        value = cache.get_or_compute("s", {"k": 1}, lambda: {"x": np.zeros(2)})
        np.testing.assert_array_equal(value["x"], np.zeros(2))

    def test_truncated_entry_recovers(self, cache):
        key = "d" * 32
        cache.store("s", key, {"x": np.arange(1000.0)})
        path = cache._entry_path("s", key)
        raw = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(raw[: len(raw) // 2])
        assert cache.load("s", key) is MISS
        assert cache.session.corrupt_entries == 1

    def test_clear_and_disk_stats(self, cache):
        cache.store("a", "1" * 32, {"x": np.ones(2)})
        cache.store("b", "2" * 32, {"x": np.ones(2)})
        stats = cache.disk_stats()
        assert stats["entries"] == 2
        assert set(stats["stages"]) == {"a", "b"}
        assert cache.clear() == 2
        assert cache.disk_stats()["entries"] == 0


class TestPipelineIntegration:
    """Warm-vs-cold bit identity on a reduced table1 run."""

    @pytest.fixture(scope="class")
    def table1_runs(self, tmp_path_factory):
        from repro.core.config import DetectorConfig
        from repro.experiments.platformcfg import PlatformConfig
        from repro.experiments.table1 import run_table1

        root = str(tmp_path_factory.mktemp("cache"))
        platform = PlatformConfig(n_chips=10, n_monte_carlo=30, seed=7)
        detector_config = DetectorConfig(kde_samples=3000, seed=11)

        def one_run(cache):
            with artifact_cache.activated(cache):
                return run_table1(platform=platform,
                                  detector_config=detector_config)

        off = one_run(None)
        cold_cache = ArtifactCache(root)
        cold = one_run(cold_cache)
        warm_cache = ArtifactCache(root)
        warm = one_run(warm_cache)
        return off, cold, warm, cold_cache, warm_cache

    def test_cold_run_populates_warm_run_hits(self, table1_runs):
        _, _, _, cold_cache, warm_cache = table1_runs
        assert cold_cache.session.hits == 0
        assert cold_cache.session.misses > 0
        assert warm_cache.session.misses == 0
        assert warm_cache.session.hits == cold_cache.session.misses
        # Every cacheable stage participates.
        assert set(warm_cache.session.per_stage) >= {
            "mc", "dutt", "regressions", "kde_tail", "kmm_shift", "boundary",
        }

    def test_populations_bit_identical(self, table1_runs):
        off, cold, warm, _, _ = table1_runs
        for a, b in ((off, cold), (off, warm)):
            np.testing.assert_array_equal(a.data.sim_pcms, b.data.sim_pcms)
            np.testing.assert_array_equal(a.data.dutt_pcms, b.data.dutt_pcms)
            np.testing.assert_array_equal(
                a.data.dutt_fingerprints, b.data.dutt_fingerprints
            )

    def test_classifications_bit_identical(self, table1_runs):
        off, cold, warm, _, _ = table1_runs
        fingerprints = off.data.dutt_fingerprints
        for boundary in ("B1", "B2", "B3", "B4", "B5"):
            reference = off.detector.classify(fingerprints, boundary=boundary)
            np.testing.assert_array_equal(
                cold.detector.classify(fingerprints, boundary=boundary), reference
            )
            np.testing.assert_array_equal(
                warm.detector.classify(fingerprints, boundary=boundary), reference
            )

    def test_metrics_identical(self, table1_runs):
        off, cold, warm, _, _ = table1_runs
        for run in (cold, warm):
            for name, metric in off.metrics.items():
                assert run.metrics[name].fp_count == metric.fp_count
                assert run.metrics[name].fn_count == metric.fn_count

    def test_provenance_shape(self, table1_runs):
        _, _, _, _, warm_cache = table1_runs
        record = warm_cache.provenance()
        assert record["enabled"] is True
        session = record["session"]
        assert session["hits"] > 0 and session["misses"] == 0
        assert "stages" in session


class TestInjectedRegression:
    """The regression class is part of every regression-dependent key."""

    def test_ablation_cold_and_warm_match_uncached(self, experiment_data, tmp_path):
        from repro.core.pipeline import GoldenChipFreeDetector
        from repro.experiments.ablations import ablate_regression_mode
        from repro.learn.latent import LatentGainMars
        from repro.learn.mars import MultiOutputMars
        from tests.conftest import small_detector_config

        config = small_detector_config()

        def one_run(cache):
            with artifact_cache.activated(cache):
                rows = ablate_regression_mode(data=experiment_data,
                                              base_config=config)
                models = {}
                for regression in (LatentGainMars, MultiOutputMars):
                    detector = GoldenChipFreeDetector(config, regression=regression)
                    detector.fit_premanufacturing(experiment_data.sim_pcms,
                                                  experiment_data.sim_fingerprints)
                    models[regression] = detector.regressions_
            return rows, models

        off_rows, off_models = one_run(None)
        cold_cache = ArtifactCache(str(tmp_path / "cache"))
        cold_rows, _ = one_run(cold_cache)
        warm_cache = ArtifactCache(str(tmp_path / "cache"))
        warm_rows, warm_models = one_run(warm_cache)

        assert cold_rows == off_rows and warm_rows == off_rows
        assert cold_cache.session.stage("regressions").misses == 2
        assert warm_cache.session.misses == 0
        for regression, model in warm_models.items():
            assert type(model) is regression
            np.testing.assert_array_equal(
                model.predict(experiment_data.dutt_pcms),
                off_models[regression].predict(experiment_data.dutt_pcms),
            )


class TestStageVersions:
    def test_entries_of_an_older_stage_version_are_misses(self, tmp_path,
                                                           monkeypatch):
        """A cache written before a solver change must not serve its output."""
        from repro.core.config import DetectorConfig
        from repro.core.pipeline import GoldenChipFreeDetector
        from repro.experiments.platformcfg import PlatformConfig
        from repro.experiments.table1 import run_table1

        platform = PlatformConfig(n_chips=6, n_monte_carlo=20, seed=7)
        detector_config = DetectorConfig(kde_samples=1000, seed=11)
        current = GoldenChipFreeDetector._STAGE_VERSIONS
        assert current["kmm_shift"] == 3 and current["boundary"] == 2
        root = str(tmp_path / "c")

        monkeypatch.setattr(GoldenChipFreeDetector, "_STAGE_VERSIONS",
                            dict.fromkeys(current, 1))
        with artifact_cache.activated(ArtifactCache(root)):
            run_table1(platform=platform, detector_config=detector_config)
        monkeypatch.setattr(GoldenChipFreeDetector, "_STAGE_VERSIONS", current)
        warm = ArtifactCache(root)
        with artifact_cache.activated(warm):
            run_table1(platform=platform, detector_config=detector_config)

        stages = warm.session.per_stage
        for stage in ("kmm_shift", "boundary"):
            assert stages[stage].hits == 0 and stages[stage].misses > 0, stage
        for stage in ("mc", "dutt", "regressions", "kde_tail"):
            assert stages[stage].misses == 0 and stages[stage].hits > 0, stage


class TestModuleConfiguration:
    def test_stage_cached_pass_through_when_off(self):
        with artifact_cache.activated(None):
            assert not artifact_cache.is_enabled()
            assert artifact_cache.stage_cached("s", {}, lambda: 42) == 42
            assert artifact_cache.provenance() is None

    def test_activated_installs_and_restores(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        with artifact_cache.activated(cache):
            assert artifact_cache.get_cache() is cache
            assert artifact_cache.is_enabled()
            assert artifact_cache.provenance()["root"] == cache.root

    def test_seedless_pipeline_skips_stochastic_caching(self, tmp_path):
        """seed=None runs must not cache stochastic stages (not reproducible)."""
        from repro.experiments.platformcfg import PlatformConfig, generate_experiment_data

        cache = ArtifactCache(str(tmp_path / "c"))
        with artifact_cache.activated(cache):
            generate_experiment_data(
                PlatformConfig(n_chips=4, n_monte_carlo=10, seed=None)
            )
        assert cache.disk_stats()["entries"] == 0
