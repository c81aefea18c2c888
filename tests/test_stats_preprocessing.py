"""The floored Whitener."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.stats.preprocessing import Whitener

matrices = arrays(
    dtype=float,
    shape=st.tuples(st.integers(3, 20), st.integers(1, 5)),
    elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
)


class TestWhitener:
    def test_floor_ratio_validation(self):
        with pytest.raises(ValueError):
            Whitener(floor_ratio=0.0)
        with pytest.raises(ValueError):
            Whitener(floor_sigma=-1.0)

    def test_whitens_correlated_data(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal((2000, 2))
        data = base @ np.array([[2.0, 1.5], [0.0, 0.5]])
        whitener = Whitener(floor_ratio=1e-9).fit(data)
        out = whitener.transform(data)
        cov = np.cov(out.T)
        np.testing.assert_allclose(cov, np.eye(2), atol=0.1)

    def test_floor_limits_amplification_of_degenerate_direction(self):
        data = np.column_stack([np.linspace(0, 10, 100), np.full(100, 1.0)])
        whitener = Whitener(floor_ratio=0.01).fit(data)
        # Degenerate direction floored at 10% (sqrt 0.01) of the top sigma.
        assert whitener.scales_[1] == pytest.approx(0.1 * whitener.scales_[0])

    def test_absolute_floor_sigma_wins_when_larger(self):
        data = np.column_stack([np.linspace(0, 1, 100), np.full(100, 1.0)])
        whitener = Whitener(floor_ratio=1e-9, floor_sigma=0.5).fit(data)
        assert whitener.scales_.min() == pytest.approx(0.5)

    @settings(max_examples=25)
    @given(matrices)
    def test_inverse_round_trip(self, data):
        whitener = Whitener().fit(data)
        np.testing.assert_allclose(
            whitener.inverse_transform(whitener.transform(data)), data, atol=1e-6
        )

    def test_in_place_finish_keeps_the_bits(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((500, 6)) @ rng.standard_normal((6, 6))
        w = Whitener().fit(data)
        whitened = w.transform(data)
        expected = (data - w.mean_) @ w.components_.T / w.scales_
        assert whitened.tobytes() == expected.tobytes()
        expected = (whitened * w.scales_) @ w.components_ + w.mean_
        assert w.inverse_transform(whitened).tobytes() == expected.tobytes()

    def test_single_point_population_is_identity(self):
        whitener = Whitener().fit(np.full((3, 2), 5.0))
        np.testing.assert_allclose(whitener.scales_, 1.0)
        out = whitener.transform(np.array([[6.0, 5.0]]))
        np.testing.assert_allclose(out, [[1.0, 0.0]])

    def test_components_are_orthonormal(self):
        rng = np.random.default_rng(0)
        whitener = Whitener().fit(rng.standard_normal((50, 4)))
        identity = whitener.components_ @ whitener.components_.T
        np.testing.assert_allclose(identity, np.eye(4), atol=1e-10)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            Whitener().transform(np.zeros((2, 2)))

    def test_feature_count_checked(self):
        whitener = Whitener().fit(np.random.default_rng(0).standard_normal((10, 3)))
        with pytest.raises(ValueError):
            whitener.transform(np.zeros((2, 4)))
