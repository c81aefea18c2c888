"""MARS regression: hinge recovery, pruning, extrapolation, multi-output."""

import numpy as np
import pytest

from repro.learn.mars import BasisFunction, HingeTerm, MarsRegression, MultiOutputMars
from tests.oracles import LstsqForwardMars


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


class TestHingeAlgebra:
    def test_hinge_evaluation(self):
        x = np.array([[0.0], [1.0], [3.0]])
        up = HingeTerm(variable=0, knot=1.0, sign=+1)
        down = HingeTerm(variable=0, knot=1.0, sign=-1)
        np.testing.assert_allclose(up.evaluate(x), [0.0, 0.0, 2.0])
        np.testing.assert_allclose(down.evaluate(x), [1.0, 0.0, 0.0])

    def test_basis_product(self):
        x = np.array([[2.0, 3.0]])
        basis = BasisFunction(
            terms=(HingeTerm(0, 1.0, +1), HingeTerm(1, 1.0, +1))
        )
        np.testing.assert_allclose(basis.evaluate(x), [2.0])

    def test_constant_basis(self):
        assert BasisFunction().degree() == 0
        np.testing.assert_allclose(BasisFunction().evaluate(np.zeros((3, 1))), 1.0)

    def test_uses_variable(self):
        basis = BasisFunction(terms=(HingeTerm(2, 0.0, +1),))
        assert basis.uses_variable(2)
        assert not basis.uses_variable(0)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs", [dict(max_terms=0), dict(max_degree=0), dict(penalty=-1.0),
                   dict(n_knot_candidates=0)]
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            MarsRegression(**kwargs)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            MarsRegression().predict(np.zeros((1, 1)))


class TestFitting:
    def test_fits_linear_function_exactly(self, rng):
        x = rng.uniform(-2, 2, size=(150, 1))
        y = 3.0 * x[:, 0] + 1.0
        model = MarsRegression().fit(x, y)
        np.testing.assert_allclose(model.predict(x), y, atol=1e-6)

    def test_fits_absolute_value(self, rng):
        x = rng.uniform(-2, 2, size=(200, 1))
        y = np.abs(x[:, 0])
        model = MarsRegression().fit(x, y)
        test = np.array([[-1.0], [0.0], [1.0]])
        np.testing.assert_allclose(model.predict(test), [1.0, 0.0, 1.0], atol=0.05)

    def test_extrapolates_linearly(self, rng):
        x = rng.uniform(-2, 2, size=(200, 1))
        y = np.abs(x[:, 0])
        model = MarsRegression().fit(x, y)
        assert model.predict(np.array([[5.0]]))[0] == pytest.approx(5.0, abs=0.3)

    def test_prunes_noise_to_few_terms(self, rng):
        x = rng.uniform(-1, 1, size=(100, 1))
        y = rng.standard_normal(100)  # pure noise
        model = MarsRegression(max_terms=15, penalty=3.0).fit(x, y)
        assert len(model.basis_) <= 5

    def test_max_terms_caps_forward_pass(self, rng):
        x = rng.uniform(-2, 2, size=(200, 2))
        y = np.sin(2 * x[:, 0]) + np.cos(2 * x[:, 1])
        model = MarsRegression(max_terms=7, penalty=0.0).fit(x, y)
        assert len(model.basis_) <= 7

    def test_additive_model_handles_two_variables(self, rng):
        x = rng.uniform(-2, 2, size=(300, 2))
        y = np.abs(x[:, 0]) + 2.0 * np.maximum(0, x[:, 1])
        model = MarsRegression(max_terms=15).fit(x, y)
        residual = y - model.predict(x)
        assert residual.std() < 0.15 * y.std()

    def test_interactions_need_degree_two(self, rng):
        x = rng.uniform(-1, 1, size=(300, 2))
        y = np.maximum(0, x[:, 0]) * np.maximum(0, x[:, 1])
        additive = MarsRegression(max_degree=1).fit(x, y)
        interacting = MarsRegression(max_degree=2).fit(x, y)
        err_additive = np.std(y - additive.predict(x))
        err_interacting = np.std(y - interacting.predict(x))
        assert err_interacting < err_additive

    def test_gcv_recorded(self, rng):
        x = rng.uniform(-1, 1, size=(80, 1))
        model = MarsRegression().fit(x, x[:, 0])
        assert model.gcv_ is not None and model.gcv_ >= 0


class TestMultiOutput:
    def test_predicts_matrix(self, rng):
        x = rng.uniform(-1, 1, size=(120, 1))
        y = np.column_stack([2 * x[:, 0], -x[:, 0] + 1])
        model = MultiOutputMars().fit(x, y)
        pred = model.predict(x)
        assert pred.shape == y.shape
        np.testing.assert_allclose(pred, y, atol=1e-5)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            MultiOutputMars().predict(np.zeros((1, 1)))


class TestForwardEngines:
    """The forward pass must reproduce the per-candidate lstsq oracle."""

    @staticmethod
    def _basis_signature(model):
        return [
            [(t.variable, t.knot, t.sign) for t in basis.terms]
            for basis in model.basis_
        ]

    @pytest.mark.parametrize("seed", range(12))
    def test_bit_identical_selection_2d(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2, 2, size=(150, 2))
        y = (np.abs(x[:, 0]) + np.maximum(0, x[:, 1])
             + 0.05 * rng.standard_normal(150))
        fast = MarsRegression().fit(x, y)
        slow = LstsqForwardMars().fit(x, y)
        assert self._basis_signature(fast) == self._basis_signature(slow)
        np.testing.assert_array_equal(fast.coef_, slow.coef_)
        assert fast.gcv_ == slow.gcv_
        np.testing.assert_array_equal(fast.predict(x), slow.predict(x))

    @pytest.mark.parametrize("seed", range(6))
    def test_bit_identical_selection_1d(self, seed):
        """1-d inputs hit the structurally rank-deficient candidate regime."""
        rng = np.random.default_rng(100 + seed)
        x = rng.uniform(-1, 1, size=(120, 1))
        y = np.sin(3 * x[:, 0]) + 0.02 * rng.standard_normal(120)
        fast = MarsRegression(max_terms=15).fit(x, y)
        slow = LstsqForwardMars(max_terms=15).fit(x, y)
        assert self._basis_signature(fast) == self._basis_signature(slow)
        np.testing.assert_array_equal(fast.coef_, slow.coef_)

    def test_bit_identical_with_interactions(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-1, 1, size=(200, 3))
        y = (np.maximum(0, x[:, 0]) * np.maximum(0, x[:, 1]) + x[:, 2]
             + 0.05 * rng.standard_normal(200))
        fast = MarsRegression(max_degree=2).fit(x, y)
        slow = LstsqForwardMars(max_degree=2).fit(x, y)
        assert self._basis_signature(fast) == self._basis_signature(slow)
        np.testing.assert_array_equal(fast.coef_, slow.coef_)

    def test_duplicate_sample_values(self):
        """Tied knot candidates must not split the search from the oracle."""
        rng = np.random.default_rng(3)
        x = rng.integers(-3, 4, size=(120, 2)).astype(float)  # heavy ties
        y = np.abs(x[:, 0]) + 0.1 * rng.standard_normal(120)
        fast = MarsRegression().fit(x, y)
        slow = LstsqForwardMars().fit(x, y)
        assert self._basis_signature(fast) == self._basis_signature(slow)
        np.testing.assert_array_equal(fast.coef_, slow.coef_)

    def test_state_round_trip(self, rng):
        x = rng.uniform(-2, 2, size=(150, 2))
        y = np.abs(x[:, 0]) - x[:, 1]
        model = MarsRegression(max_terms=9).fit(x, y)
        clone = MarsRegression.from_state(model.to_state())
        np.testing.assert_array_equal(clone.predict(x), model.predict(x))
        assert self._basis_signature(clone) == self._basis_signature(model)

    def test_state_with_retired_forward_param_loads(self, rng):
        # Models persisted before the forward-engine switch was retired
        # carry ``"forward"`` in their params.
        x = rng.uniform(-2, 2, size=(150, 2))
        y = np.abs(x[:, 0]) - x[:, 1]
        model = MarsRegression(max_terms=9).fit(x, y)
        state = model.to_state()
        state["params"]["forward"] = "fast"
        clone = MarsRegression.from_state(state)
        np.testing.assert_array_equal(clone.predict(x), model.predict(x))
        state["params"]["knots"] = 3
        with pytest.raises(TypeError):
            MarsRegression.from_state(state)
