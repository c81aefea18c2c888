"""Kernel mean matching and importance resampling."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.experiments.platformcfg import PlatformConfig, generate_experiment_data
from repro.stats import kmm
from repro.stats.kernels import rbf_kernel
from repro.stats.kmm import (
    KKT_TOLERANCE,
    KernelMeanMatcher,
    KmmProblem,
    importance_resample,
    kkt_residual,
    solve_kmm_qp,
)
from tests.oracles import cholesky_active_set


def kmm_qp(matcher, problem):
    """The ``(K, kappa)`` of the QP ``matcher`` solved on ``problem``."""
    n_tr, n_te = problem.n_train, problem.n_test
    pooled = problem.kernel(matcher.effective_gamma_)
    K = pooled[:n_tr, :n_tr] + 1e-8 * np.eye(n_tr)
    kappa = (n_tr / n_te) * pooled[:n_tr, n_tr:].sum(axis=1)
    return K, kappa


def objective(K, kappa, beta):
    return 0.5 * beta @ K @ beta - kappa @ beta


def into_slab(beta, B, lower, upper):
    """Move a box point along a line to ``0`` or ``B`` until its sum fits."""
    total = beta.sum()
    if lower <= total <= upper:
        return beta
    bound, corner = (upper, 0.0) if total > upper else (lower, B)
    return beta + (bound - total) / (corner * beta.size - total) * (corner - beta)


@pytest.fixture()
def shifted_data():
    rng = np.random.default_rng(0)
    train = rng.standard_normal((200, 1))
    test = 0.8 + 0.5 * rng.standard_normal((80, 1))
    return train, test


class TestKmm:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            KernelMeanMatcher(B=0.0)
        with pytest.raises(ValueError):
            KernelMeanMatcher(eps=-0.1)

    def test_infeasible_slab_rejected(self, shifted_data):
        # Weights of at most B = 0.5 cannot reach mean 1 - eps = 0.9.
        train, test = shifted_data
        with pytest.raises(ValueError, match="infeasible"):
            KernelMeanMatcher(B=0.5, eps=0.1).fit(train, test)

    def test_weights_respect_bounds(self, shifted_data):
        train, test = shifted_data
        matcher = KernelMeanMatcher(B=5.0).fit(train, test)
        assert matcher.converged_
        assert np.all(matcher.weights >= 0.0)
        assert np.all(matcher.weights <= 5.0 + 1e-9)

    def test_mean_constraint_respected(self, shifted_data):
        train, test = shifted_data
        matcher = KernelMeanMatcher(B=10.0, eps=0.3).fit(train, test)
        assert matcher.converged_
        assert abs(matcher.weights.mean() - 1.0) <= 0.3 + 1e-6

    def test_weighted_mean_moves_toward_test(self, shifted_data):
        train, test = shifted_data
        matcher = KernelMeanMatcher(B=10.0).fit(train, test)
        assert matcher.converged_
        w = matcher.weights
        weighted_mean = float((w[:, None] * train).sum() / w.sum())
        assert abs(weighted_mean - test.mean()) < abs(train.mean() - test.mean())

    def test_identical_distributions_keep_higher_ess_than_shifted(self):
        rng = np.random.default_rng(1)
        train = rng.standard_normal((150, 2))
        same = rng.standard_normal((150, 2))
        shifted = rng.standard_normal((150, 2)) + 2.0
        same_fit = KernelMeanMatcher(B=10.0).fit(train, same)
        shifted_fit = KernelMeanMatcher(B=10.0).fit(train, shifted)
        assert same_fit.converged_ and shifted_fit.converged_
        ess_same = same_fit.effective_sample_size()
        ess_shifted = shifted_fit.effective_sample_size()
        assert ess_same > 20
        assert ess_same > ess_shifted

    def test_feature_mismatch_rejected(self):
        with pytest.raises(ValueError, match="share features"):
            KernelMeanMatcher().fit(np.zeros((5, 2)), np.zeros((5, 3)))

    def test_weights_before_fit_raise(self):
        with pytest.raises(RuntimeError):
            _ = KernelMeanMatcher().weights

    def test_effective_gamma_recorded(self, shifted_data):
        train, test = shifted_data
        matcher = KernelMeanMatcher(gamma=0.7).fit(train, test)
        assert matcher.converged_
        assert matcher.effective_gamma_ == 0.7

    def test_binding_slab_is_met_exactly(self, shifted_data):
        # A test set far from the training mass: the box-only optimum keeps
        # mean(beta) ~0.76, so eps = 0.05 binds at the lower side.
        train, _ = shifted_data
        far = 2.5 + 0.3 * np.random.default_rng(1).standard_normal((80, 1))
        loose = KernelMeanMatcher(B=10.0, eps=100.0).fit(train, far)
        assert loose.weights.mean() < 0.8
        matcher = KernelMeanMatcher(B=10.0, eps=0.05).fit(train, far)
        assert matcher.converged_
        assert matcher.weights.mean() == pytest.approx(0.95, abs=1e-12)
        problem = KmmProblem(train, far)
        _, kappa = kmm_qp(matcher, problem)
        assert matcher.kkt_residual_ <= KKT_TOLERANCE * np.abs(kappa).max()
        assert np.all((matcher.weights >= 0.0) & (matcher.weights <= 10.0))

    def test_display_lot_objective_matches_reference(self, full_experiment_data):
        # The display lot (platform seed 16) at the pipeline's B = 10; the
        # reference objective is the value a converged SLSQP run reached.
        assert PlatformConfig().seed == 16
        data = full_experiment_data
        problem = KmmProblem(data.sim_pcms, data.dutt_pcms)
        matcher = KernelMeanMatcher(B=10.0).fit_problem(problem)
        assert matcher.converged_
        K, kappa = kmm_qp(matcher, problem)
        assert objective(K, kappa, matcher.weights) == pytest.approx(
            -3001.7205729024, rel=1e-9
        )
        assert matcher.effective_sample_size() == pytest.approx(8.245, abs=5e-4)

    def test_kkt_residual_is_traced(self, shifted_data):
        train, test = shifted_data
        obs.enable()
        try:
            matcher = KernelMeanMatcher(B=10.0).fit(train, test)
        finally:
            spans, snapshot = obs.disable()
        (fit_span,) = [s for s in spans if s.name == "kmm.fit"]
        assert fit_span.attributes["kkt_residual"] == matcher.kkt_residual_
        assert fit_span.attributes["converged"] is True
        assert snapshot["histograms"]["kmm.kkt_residual"]["count"] == 1

    def test_iteration_cap_is_not_convergence(self, shifted_data, monkeypatch,
                                              caplog):
        train, test = shifted_data
        monkeypatch.setattr(kmm, "MAX_ITERATIONS", 3)
        # setup_logging stops propagation at the "repro" logger, so listen
        # on the module logger itself.
        logger = logging.getLogger("repro.kmm")
        logger.addHandler(caplog.handler)
        try:
            matcher = KernelMeanMatcher(B=10.0).fit(train, test)
        finally:
            logger.removeHandler(caplog.handler)
        assert not matcher.converged_
        assert matcher.qp_iterations_ == 3
        assert f"{matcher.kkt_residual_:.3g}" in caplog.text


@st.composite
def kmm_instances(draw):
    """Small random KMM QPs: (K, kappa, B, lower, upper, seed)."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_tr = draw(st.integers(2, 40))
    n_te = draw(st.integers(1, 40))
    d = draw(st.sampled_from([1, 2]))
    B = draw(st.sampled_from([1.0, 10.0]))
    eps = draw(st.sampled_from([0.0, 1e-6, 1e-3, 0.05, 0.3, 0.9]))
    shift = draw(st.floats(0.0, 3.0))
    rng = np.random.default_rng(seed)
    train = rng.standard_normal((n_tr, d))
    test = shift + rng.uniform(0.2, 1.5) * rng.standard_normal((n_te, d))
    gamma = draw(st.sampled_from([0.1, 0.5, 2.0]))
    K = rbf_kernel(train, train, gamma) + 1e-8 * np.eye(n_tr)
    kappa = (n_tr / n_te) * rbf_kernel(train, test, gamma).sum(axis=1)
    return K, kappa, B, n_tr * (1.0 - eps), n_tr * (1.0 + eps), seed


class TestSolver:
    @settings(max_examples=60, deadline=None)
    @given(kmm_instances())
    def test_solution_satisfies_kkt(self, instance):
        K, kappa, B, lower, upper, seed = instance
        beta, nu, _, optimal = solve_kmm_qp(K, kappa, B, lower, upper)
        assert optimal
        tol = KKT_TOLERANCE * max(1.0, np.abs(kappa).max())
        # Primal feasibility: box and slab.
        assert np.all((beta >= 0.0) & (beta <= B))
        assert lower - 1e-9 <= beta.sum() <= upper + 1e-9
        # Dual feasibility: multiplier signs at each bound, stationarity
        # of the free weights.
        gradient = K @ beta - kappa - nu
        at_lower, at_upper = beta == 0.0, beta == B
        free = ~(at_lower | at_upper)
        assert np.all(gradient[at_lower] >= -tol)
        assert np.all(gradient[at_upper] <= tol)
        assert np.all(np.abs(gradient[free]) <= tol)
        # Complementary slackness: nu > 0 only on the lower side of the
        # slab, nu < 0 only on the upper side.
        if nu > 0:
            assert beta.sum() == pytest.approx(lower, abs=1e-9)
        if nu < 0:
            assert beta.sum() == pytest.approx(upper, abs=1e-9)
        assert kkt_residual(K, kappa, beta, nu, B, lower, upper) <= tol
        # No random feasible point does better.
        best = objective(K, kappa, beta)
        rng = np.random.default_rng(seed)
        for _ in range(20):
            point = into_slab(rng.uniform(0.0, B, size=beta.size), B, lower, upper)
            assert objective(K, kappa, point) >= best - 1e-9 * abs(best)


class TestCholeskyOracle:
    """Production solves the free block by LU; the oracle by Cholesky.

    Both are exact, so on the pipeline's lots they take the same
    active-set path to the same bound pattern and differ in the weights
    only by round-off in the nearly singular Gram blocks.
    """

    @pytest.mark.parametrize("platform_seed", [16, 33, 39])
    def test_lu_solver_matches_cholesky_oracle(self, platform_seed, monkeypatch):
        data = generate_experiment_data(PlatformConfig(seed=platform_seed))
        problem = KmmProblem(data.sim_pcms, data.dutt_pcms)
        production = KernelMeanMatcher(B=10.0).fit_problem(problem)
        monkeypatch.setattr(kmm, "_active_set", cholesky_active_set)
        oracle = KernelMeanMatcher(B=10.0).fit_problem(problem)
        assert production.converged_ and oracle.converged_
        assert production.qp_iterations_ == oracle.qp_iterations_
        for bound in (0.0, 10.0):
            np.testing.assert_array_equal(production.weights == bound,
                                          oracle.weights == bound)
        np.testing.assert_allclose(production.weights, oracle.weights, rtol=0,
                                   atol=1e-6 * oracle.weights.max())


class TestImportanceResample:
    def test_shape_and_membership(self, shifted_data):
        train, _ = shifted_data
        weights = np.ones(train.shape[0])
        out = importance_resample(train, weights, size=50, rng=0)
        assert out.shape == (50, 1)
        assert set(out[:, 0]).issubset(set(train[:, 0]))

    def test_zero_weight_samples_never_drawn(self):
        samples = np.arange(10, dtype=float)[:, None]
        weights = np.zeros(10)
        weights[3] = 1.0
        out = importance_resample(samples, weights, size=20, rng=0)
        assert np.all(out == 3.0)

    def test_validation(self):
        samples = np.zeros((5, 1))
        with pytest.raises(ValueError):
            importance_resample(samples, np.ones(4), size=5)
        with pytest.raises(ValueError):
            importance_resample(samples, -np.ones(5), size=5)
        with pytest.raises(ValueError):
            importance_resample(samples, np.zeros(5), size=5)
        with pytest.raises(ValueError):
            importance_resample(samples, np.ones(5), size=0)

    def test_deterministic_given_seed(self, shifted_data):
        train, test = shifted_data
        matcher = KernelMeanMatcher(B=1000.0).fit(train, test)
        assert matcher.converged_
        w = matcher.weights
        a = importance_resample(train, w, size=30, rng=9)
        b = importance_resample(train, w, size=30, rng=9)
        np.testing.assert_array_equal(a, b)


class TestKmmProblem:
    def test_fit_problem_bitwise_matches_fit(self, shifted_data):
        train, test = shifted_data
        direct = KernelMeanMatcher(B=10.0).fit(train, test)
        problem = KmmProblem(train, test)
        hoisted = KernelMeanMatcher(B=10.0).fit_problem(problem)
        assert direct.converged_ and hoisted.converged_
        np.testing.assert_array_equal(hoisted.weights, direct.weights)
        assert hoisted.effective_gamma_ == direct.effective_gamma_
        assert hoisted.rkhs_residual_ == direct.rkhs_residual_

    def test_distances_reused_across_bandwidths(self, shifted_data):
        train, test = shifted_data
        problem = KmmProblem(train, test)
        before = problem.sq_dists_.copy()
        base = problem.median_gamma()
        matchers = problem.sweep([0.5 * base, base, 2.0 * base], B=10.0)
        # The pooled distances are pristine after a sweep (kernels use copies).
        np.testing.assert_array_equal(problem.sq_dists_, before)
        assert [m.effective_gamma_ for m in matchers] == [
            0.5 * base, base, 2.0 * base
        ]

    def test_sweep_arms_bitwise_match_one_shot_fits(self):
        rng = np.random.default_rng(0)
        train = rng.normal(size=(60, 2))
        test = rng.normal(loc=0.3, size=(50, 2))
        problem = KmmProblem(train, test)
        base = problem.median_gamma()
        matchers = problem.sweep([base, 2.0 * base, 4.0 * base], B=10.0, eps=0.2)
        for matcher in matchers:
            assert matcher.converged_
            direct = KernelMeanMatcher(
                B=10.0, eps=0.2, gamma=matcher.effective_gamma_
            ).fit(train, test)
            np.testing.assert_array_equal(matcher.weights, direct.weights)
            assert matcher.rkhs_residual_ == direct.rkhs_residual_

    def test_fit_problem_records_qp_iterations(self, shifted_data):
        train, test = shifted_data
        matcher = KernelMeanMatcher(B=10.0).fit_problem(KmmProblem(train, test))
        assert matcher.converged_
        assert matcher.qp_iterations_ > 0

    def test_median_gamma_matches_one_shot_path(self, shifted_data):
        train, test = shifted_data
        problem = KmmProblem(train, test)
        matcher = KernelMeanMatcher(B=10.0).fit(train, test)
        assert matcher.converged_
        assert matcher.effective_gamma_ == problem.median_gamma()

    def test_feature_mismatch_rejected(self):
        with pytest.raises(ValueError, match="share features"):
            KmmProblem(np.zeros((5, 2)), np.zeros((5, 3)))
