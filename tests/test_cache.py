"""``repro.cache``: the model codec bundles are built on, and the retired
artifact cache's switch.

The load-bearing guarantee under test: registered model classes round-trip
through :func:`repro.cache.codec.encode` / :func:`~repro.cache.codec.decode`
with bitwise identical predictions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import cache
from repro.cache import codec


def round_trip(value):
    """Encode ``value`` and decode it back, as a bundle load does."""
    meta, arrays = codec.encode(value)
    return codec.decode(meta, arrays)


class TestCodec:
    def test_plain_tree_round_trip(self):
        value = {
            "pcms": np.arange(20.0).reshape(4, 5),
            "names": ["a", "b"],
            "shape": (4, 5),
            "flags": {"ok": True, "count": 3, "ratio": 0.25, "none": None},
        }
        loaded = round_trip(value)
        np.testing.assert_array_equal(loaded["pcms"], value["pcms"])
        assert loaded["names"] == value["names"]
        assert loaded["shape"] == (4, 5)          # tuples survive
        assert loaded["flags"] == value["flags"]

    def test_cached_none_is_not_a_miss(self):
        """``None`` is a value like any other: it decodes as ``None``."""
        assert round_trip(None) is None

    def test_unregistered_object_rejected(self):
        with pytest.raises(codec.CacheCodecError):
            codec.encode(object())

    def test_mars_round_trip(self):
        from repro.learn.mars import MarsRegression

        rng = np.random.default_rng(0)
        x = rng.standard_normal((120, 3))
        y = np.maximum(x[:, 0] - 0.2, 0.0) + 0.5 * x[:, 1] + 0.01 * rng.standard_normal(120)
        model = MarsRegression(max_terms=12).fit(x, y)
        loaded = round_trip(model)
        np.testing.assert_array_equal(loaded.predict(x), model.predict(x))
        assert loaded.gcv_ == model.gcv_

    def test_multi_output_mars_round_trip(self):
        from repro.learn.mars import MultiOutputMars

        rng = np.random.default_rng(1)
        x = rng.standard_normal((100, 2))
        y = np.column_stack([x[:, 0] ** 2, np.abs(x[:, 1])])
        model = MultiOutputMars(max_terms=8).fit(x, y)
        loaded = round_trip(model)
        np.testing.assert_array_equal(loaded.predict(x), model.predict(x))

    def test_trusted_region_round_trip(self):
        from repro.core.boundaries import TrustedRegion

        rng = np.random.default_rng(2)
        train = rng.standard_normal((300, 4))
        probe = rng.standard_normal((50, 4))
        region = TrustedRegion(name="B1", nu=0.08, noise_floor_rel=0.0, seed=0).fit(train)
        loaded = round_trip(region)
        np.testing.assert_array_equal(
            loaded.predict_trojan_free(probe), region.predict_trojan_free(probe)
        )
        np.testing.assert_array_equal(
            loaded.decision_scores(probe), region.decision_scores(probe)
        )

    def test_whitener_and_ocsvm_round_trip(self):
        from repro.learn.ocsvm import OneClassSvm
        from repro.stats.preprocessing import Whitener

        rng = np.random.default_rng(3)
        train = rng.standard_normal((200, 3)) * np.array([1.0, 5.0, 0.2])
        probe = rng.standard_normal((40, 3))
        whitener = Whitener().fit(train)
        svm = OneClassSvm(nu=0.1, seed=0).fit(whitener.transform(train))
        loaded = round_trip({"whitener": whitener, "svm": svm})
        np.testing.assert_array_equal(
            loaded["whitener"].transform(probe), whitener.transform(probe)
        )
        np.testing.assert_array_equal(
            loaded["svm"].decision_function(whitener.transform(probe)),
            svm.decision_function(whitener.transform(probe)),
        )


class TestRetiredCacheSwitch:
    def test_perfbench_switch_calls_still_work(self):
        """``perfbench/harness.py`` switches the cache off and reads it back."""
        assert cache.configure(enabled=False) is None
        assert cache.is_enabled() is False

    def test_switching_on_is_refused(self):
        with pytest.raises(ValueError, match="retired"):
            cache.configure(enabled=True)
