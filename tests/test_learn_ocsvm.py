"""One-class SVM: ν-property, boundary behaviour, SMO convergence."""

import copy
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.boundaries import trojan_free
from repro.learn.ocsvm import _BLOCK_ENTRIES, OneClassSvm
from repro.stats.kernels import pairwise_sq_dists, rbf_kernel
from tests.oracles import FullScanOneClassSvm


@pytest.fixture()
def gaussian_cloud():
    return np.random.default_rng(0).standard_normal((400, 2))


class TestValidation:
    def test_nu_range(self):
        with pytest.raises(ValueError):
            OneClassSvm(nu=0.0)
        with pytest.raises(ValueError):
            OneClassSvm(nu=1.5)

    def test_gamma_positive(self):
        with pytest.raises(ValueError):
            OneClassSvm(gamma=-1.0)

    def test_max_training_samples(self):
        with pytest.raises(ValueError):
            OneClassSvm(max_training_samples=1)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            OneClassSvm().decision_function(np.zeros((1, 2)))


class TestNuProperty:
    @pytest.mark.parametrize("nu", [0.05, 0.1, 0.25])
    def test_training_outlier_fraction_close_to_nu(self, gaussian_cloud, nu):
        svm = OneClassSvm(nu=nu, seed=0).fit(gaussian_cloud)
        outlier_fraction = 1.0 - trojan_free(svm.decision_function(gaussian_cloud)).mean()
        assert outlier_fraction == pytest.approx(nu, abs=0.05)

    def test_support_vector_fraction_at_least_nu(self, gaussian_cloud):
        nu = 0.2
        svm = OneClassSvm(nu=nu, seed=0).fit(gaussian_cloud)
        sv_fraction = svm.support_vectors_.shape[0] / gaussian_cloud.shape[0]
        assert sv_fraction >= nu - 0.02


class TestBoundary:
    def test_center_inside_far_point_outside(self, gaussian_cloud):
        svm = OneClassSvm(nu=0.1, seed=0).fit(gaussian_cloud)
        assert trojan_free(svm.decision_function(np.array([[0.0, 0.0]])))[0]
        assert not trojan_free(svm.decision_function(np.array([[8.0, 8.0]])))[0]

    def test_decision_function_decreases_outward(self, gaussian_cloud):
        # Fixed gamma: the median-heuristic kernel is deliberately broad and
        # can plateau inside the cloud, which is not what this test probes.
        svm = OneClassSvm(nu=0.1, gamma=1.0, seed=0).fit(gaussian_cloud)
        radii = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [6.0, 0.0]])
        scores = svm.decision_function(radii)
        assert np.all(np.diff(scores) < 0)

    def test_bimodal_data_excludes_the_gap(self):
        rng = np.random.default_rng(0)
        clusters = np.vstack([
            rng.standard_normal((200, 2)) * 0.3 + [-3.0, 0.0],
            rng.standard_normal((200, 2)) * 0.3 + [+3.0, 0.0],
        ])
        svm = OneClassSvm(nu=0.05, gamma=2.0, seed=0).fit(clusters)
        assert trojan_free(svm.decision_function(np.array([[-3.0, 0.0], [3.0, 0.0]]))).all()
        assert not trojan_free(svm.decision_function(np.array([[0.0, 0.0]])))[0]

    def test_explicit_gamma_is_used(self, gaussian_cloud):
        svm = OneClassSvm(nu=0.1, gamma=2.5, seed=0).fit(gaussian_cloud)
        assert svm.effective_gamma_ == 2.5


class TestSolver:
    def test_alpha_sums_to_one(self, gaussian_cloud):
        svm = OneClassSvm(nu=0.1, seed=0).fit(gaussian_cloud)
        assert svm.dual_coefs_.sum() == pytest.approx(1.0, abs=1e-8)

    def test_alpha_within_box(self, gaussian_cloud):
        nu = 0.1
        svm = OneClassSvm(nu=nu, seed=0).fit(gaussian_cloud)
        bound = 1.0 / (nu * gaussian_cloud.shape[0])
        assert np.all(svm.dual_coefs_ >= 0)
        assert np.all(svm.dual_coefs_ <= bound + 1e-12)

    def test_subsampling_caps_support_set(self):
        data = np.random.default_rng(0).standard_normal((3000, 2))
        svm = OneClassSvm(nu=0.5, max_training_samples=200, seed=0).fit(data)
        assert svm.support_vectors_.shape[0] <= 200

    def test_subsampling_is_deterministic(self):
        data = np.random.default_rng(0).standard_normal((1000, 2))
        a = OneClassSvm(nu=0.1, max_training_samples=300, seed=7).fit(data)
        b = OneClassSvm(nu=0.1, max_training_samples=300, seed=7).fit(data)
        np.testing.assert_array_equal(a.support_vectors_, b.support_vectors_)
        assert a.rho_ == b.rho_

    def test_converges_quickly_on_small_data(self):
        data = np.random.default_rng(0).standard_normal((50, 2))
        svm = OneClassSvm(nu=0.2, seed=0).fit(data)
        assert svm.n_iterations_ < 50_000


def assert_same_fit(data, **params):
    """Production fit == the full-scan oracle's, bit for bit."""
    fit = OneClassSvm(**params).fit(data)
    oracle = FullScanOneClassSvm(**params).fit(data)
    assert fit.support_vectors_.tobytes() == oracle.support_vectors_.tobytes()
    assert fit.dual_coefs_.tobytes() == oracle.dual_coefs_.tobytes()
    assert fit.rho_.hex() == oracle.rho_.hex()
    assert fit.effective_gamma_.hex() == oracle.effective_gamma_.hex()
    assert fit.n_iterations_ == oracle.n_iterations_
    assert fit.kkt_residual_.hex() == oracle.kkt_residual_.hex()
    assert fit.converged_ == oracle.converged_
    return fit


class TestCompactDownSet:
    """The SMO's compact down-set scan == the full-length scan, bit for bit."""

    # n = 2600 rows are subsampled to 2000.  nu = 0.0005 gives nu * n < 1,
    # the uniform start, below n = 2000.
    @pytest.mark.parametrize("n", [2, 10, 100, 1500, 2600])
    @pytest.mark.parametrize("nu", [0.0005, 0.08, 0.5])
    def test_matches_full_scan(self, n, nu):
        data = np.random.default_rng(n).standard_normal((n, 6)) * [3.0, 1, 1, 1, 0.5, 0.1]
        assert_same_fit(data, nu=nu, seed=4)

    # Grid points repeated 4 times tie exactly in the WSS2 gain; only an
    # ascending down set breaks those ties as the full-length scan does.
    @pytest.mark.parametrize("seed, d", [(1, 1), (9, 2)])
    @pytest.mark.parametrize("nu", [0.0005, 0.08, 0.5])
    def test_duplicated_rows(self, seed, d, nu):
        base = np.round(np.random.default_rng(seed).standard_normal((40, d)))
        data = np.repeat(base, 4, axis=0)[np.random.default_rng(seed + 100).permutation(160)]
        assert_same_fit(data, nu=nu)

    @pytest.mark.parametrize("max_iterations", [1, 5, 40])
    def test_iteration_cap(self, gaussian_cloud, max_iterations):
        fit = assert_same_fit(gaussian_cloud, nu=0.08, max_iterations=max_iterations)
        assert fit.n_iterations_ == max_iterations and not fit.converged_


def dense_kkt_residual(model, data):
    """Max KKT violation of a fit, with ``K alpha`` recomputed densely.

    The solver keeps ``K alpha`` incrementally; recomputing it from the
    stored dual coefficients catches drift in that running gradient.
    """
    n = data.shape[0]
    c_bound = 1.0 / (model.nu * n)
    index = {row.tobytes(): k for k, row in enumerate(data)}
    alpha = np.zeros(n)
    for vector, coef in zip(model.support_vectors_, model.dual_coefs_):
        alpha[index[vector.tobytes()]] = coef
    gradient = rbf_kernel(data, data, gamma=model.effective_gamma_) @ alpha
    up = alpha < c_bound - 1e-15
    down = alpha > 1e-15
    return max(0.0, float(gradient[down].max() - gradient[up].min()))


class TestKktOptimality:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(20, 300),
        d=st.integers(2, 6),
        nu=st.floats(0.05, 0.5),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_solution_satisfies_kkt(self, n, d, nu, seed):
        data = np.random.default_rng(seed).standard_normal((n, d))
        model = OneClassSvm(nu=nu, seed=0).fit(data)
        assert model.converged_
        assert model.kkt_residual_ < model.tol
        # Dual coefficients dropped below BOUNDARY_TOL and the rounding of
        # the running gradient each move the dense residual by far less
        # than this slack.
        assert dense_kkt_residual(model, data) < model.tol + 1e-9
        c_bound = 1.0 / (nu * n)
        assert model.dual_coefs_.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(model.dual_coefs_ > 0.0)
        assert np.all(model.dual_coefs_ <= c_bound + 1e-12)

    def test_iteration_cap_is_not_convergence(self, gaussian_cloud, caplog):
        # setup_logging stops propagation at the "repro" logger, so listen
        # on the module logger itself.
        logger = logging.getLogger("repro.ocsvm")
        logger.addHandler(caplog.handler)
        try:
            model = OneClassSvm(nu=0.1, max_iterations=3, seed=0).fit(gaussian_cloud)
        finally:
            logger.removeHandler(caplog.handler)
        assert model.converged_ is False
        assert model.n_iterations_ == 3
        assert model.kkt_residual_ >= model.tol
        assert f"{model.kkt_residual_:.3g}" in caplog.text

    def test_converged_fit_does_not_warn(self, gaussian_cloud, caplog):
        logger = logging.getLogger("repro.ocsvm")
        logger.addHandler(caplog.handler)
        try:
            model = OneClassSvm(nu=0.1, seed=0).fit(gaussian_cloud)
        finally:
            logger.removeHandler(caplog.handler)
        assert model.converged_ is True
        assert caplog.text == ""

    def test_kkt_residual_is_traced(self, gaussian_cloud):
        obs.enable()
        try:
            model = OneClassSvm(nu=0.1, seed=0).fit(gaussian_cloud)
        finally:
            spans, snapshot = obs.disable()
        (fit_span,) = [s for s in spans if s.name == "ocsvm.fit"]
        assert fit_span.attributes["kkt_residual"] == model.kkt_residual_
        assert fit_span.attributes["converged"] is True
        assert snapshot["histograms"]["ocsvm.kkt_residual"]["count"] == 1


@pytest.fixture(scope="module")
def probe_svm():
    return OneClassSvm(nu=0.1, gamma=0.5, seed=0).fit(
        np.random.default_rng(3).standard_normal((300, 4))
    )


def _probe_points(svm, probes):
    """One point per ``(seed, t)`` at scaled distance ``t`` from a random SV.

    ``gamma * ||x - s_j||^2 = t`` up to rounding for the drawn support
    vector ``s_j``; the other support vectors lie a few units away, so a
    probe near ``t = 720`` puts many kernel entries in the 700-746 band.
    """
    support = svm.support_vectors_
    points = np.empty((len(probes), support.shape[1]))
    for row, (seed, t) in enumerate(probes):
        rng = np.random.default_rng(seed)
        direction = rng.standard_normal(support.shape[1])
        direction /= np.linalg.norm(direction)
        anchor = support[rng.integers(support.shape[0])]
        points[row] = anchor + direction * np.sqrt(t / svm.effective_gamma_)
    return points


class TestBlockedInference:
    """Row blocks and the underflow cut are invisible in the scores."""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 2**32 - 1),
                  st.one_of(st.floats(0.0, 1500.0), st.floats(700.0, 746.0))),
        min_size=1, max_size=64,
    ))
    def test_scores_match_dense_kernel(self, probe_svm, probes):
        svm = probe_svm
        points = _probe_points(svm, probes)
        kernel_sums = (rbf_kernel(points, svm.support_vectors_, svm.effective_gamma_)
                       @ svm.dual_coefs_)
        dense = kernel_sums - svm.rho_
        scores = svm.decision_function(points)
        np.testing.assert_allclose(scores, dense, rtol=0, atol=1e-300)
        np.testing.assert_array_equal(scores >= 0.0, dense >= 0.0)
        # Subtracting rho rounds the tail away; with rho = 0 the bound
        # applies to the kernel sums themselves.
        unshifted = copy.copy(svm)
        unshifted.rho_ = 0.0
        np.testing.assert_allclose(unshifted.decision_function(points), kernel_sums,
                                   rtol=0, atol=1e-300)

    @settings(max_examples=10, deadline=None)
    @given(
        n_blocks=st.integers(2, 4),
        extra=st.integers(0, 200),
        split_block=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_split_at_block_boundary(self, probe_svm, n_blocks, extra, split_block,
                                     seed):
        svm = probe_svm
        rows = _BLOCK_ENTRIES // svm.support_vectors_.shape[0]
        rng = np.random.default_rng(seed)
        n = n_blocks * rows + extra
        points = _probe_points(svm, list(zip(rng.integers(0, 2**32, n),
                                              rng.uniform(0.0, 1500.0, n))))
        split = min(split_block, n_blocks - 1) * rows
        whole = svm.decision_function(points)
        parts = np.concatenate([svm.decision_function(points[:split]),
                                svm.decision_function(points[split:])])
        np.testing.assert_array_equal(whole, parts)

    @settings(max_examples=30, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=16),
        t=st.floats(746.5, 5000.0),
    )
    def test_far_device_scores_minus_rho(self, probe_svm, seeds, t):
        svm = probe_svm
        support = svm.support_vectors_
        center = support.mean(axis=0)
        reach = np.sqrt(t / svm.effective_gamma_) + np.linalg.norm(
            support - center, axis=1).max()
        points = np.empty((len(seeds), support.shape[1]))
        for row, seed in enumerate(seeds):
            direction = np.random.default_rng(seed).standard_normal(support.shape[1])
            points[row] = center + reach * direction / np.linalg.norm(direction)
        scaled = svm.effective_gamma_ * pairwise_sq_dists(points, support)
        assert scaled.min() > 746.0
        scores = svm.decision_function(points)
        assert np.all(scores == -svm.rho_)
