"""Reference-implementation property tests for the vectorized hot paths.

The KDE density evaluation and the SMO solver were rewritten for speed; these
tests pin them against slow-but-obviously-correct references:

* the blocked GEMM density evaluation must match a per-observation Python
  loop over the kernel definition (Eq. 5-7) to 1e-12, for both the fixed and
  the adaptive estimate;
* the Epanechnikov offset sampler must satisfy the kernel's radial law
  (support inside the unit ball, E[r^2] = d / (d + 4));
* the dense maximal-violating-pair SMO oracle must keep reproducing a
  frozen reference solution (rho, gamma, support set) on a fixed
  fingerprint-sized problem, and the production solver must reach the
  same optimum to its tolerance, so any future "optimization" that changes
  the optimum is caught immediately;
* the blocked one-class SVM scoring must equal one dense kernel pass bit
  for bit on calibrated lots and on a far screening lot.
"""

import numpy as np
import pytest

from repro.core import boundaries
from repro.core.boundaries import trojan_free
from repro.core.config import DetectorConfig
from repro.core.pipeline import BOUNDARY_NAMES
from repro.experiments.platformcfg import PlatformConfig, generate_experiment_data
from repro.experiments.table1 import run_table1
from repro.learn.ocsvm import _BLOCK_ENTRIES, OneClassSvm
from repro.stats.kde import (
    AdaptiveKde,
    EpanechnikovKde,
    _sample_unit_epanechnikov,
    unit_ball_volume,
)
from tests.oracles import DenseMvpOneClassSvm, dense_decision_function


def _loop_density(kde, points):
    """Per-observation transliteration of Eq. (5)/(7): f(x) = (1/M) sum_i
    Ke((x - m_i) / h_i) / h_i^d, evaluated in the estimator's working
    coordinates and mapped back through the whitening Jacobian."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    working = kde._to_working(points)
    train = kde._points
    m, d = train.shape
    if getattr(kde, "_lambdas", None) is not None:
        bandwidths = kde._h * kde._lambdas
    else:
        bandwidths = np.full(m, kde._h)
    coeff = 0.5 * (d + 2.0) / unit_ball_volume(d)
    out = np.empty(working.shape[0])
    for row, x in enumerate(working):
        total = 0.0
        for center, h in zip(train, bandwidths):
            t_sq = float(np.sum((x - center) ** 2)) / h**2
            if t_sq < 1.0:
                total += coeff * (1.0 - t_sq) / h**d
        out[row] = total / m
    return out * kde._jacobian()


@pytest.fixture(scope="module")
def clouds():
    rng = np.random.default_rng(2024)
    train = rng.standard_normal((180, 4)) @ np.diag([3.0, 1.0, 0.4, 0.05])
    # Queries that straddle the cloud: training points, near-misses, and
    # far-out probes whose density must be exactly zero in both paths.
    queries = np.vstack([
        train[:40],
        train[40:80] + 0.1 * rng.standard_normal((40, 4)),
        train[:10] + 50.0,
    ])
    return train, queries


class TestDensityMatchesLoop:
    def test_fixed_bandwidth(self, clouds):
        train, queries = clouds
        kde = EpanechnikovKde().fit(train)
        np.testing.assert_allclose(
            kde.density(queries), _loop_density(kde, queries), rtol=1e-12, atol=1e-15
        )

    def test_adaptive_bandwidth(self, clouds):
        train, queries = clouds
        kde = AdaptiveKde(alpha=0.5).fit(train)
        np.testing.assert_allclose(
            kde.density(queries), _loop_density(kde, queries), rtol=1e-12, atol=1e-15
        )

    def test_blocked_evaluation_is_invisible(self, clouds):
        # A tiny scratch budget forces many blocks; the split changes GEMM
        # shapes (1-ulp reassociation) but nothing beyond that.
        train, queries = clouds
        one_block = AdaptiveKde(alpha=0.5).fit(train)
        many_blocks = AdaptiveKde(alpha=0.5, max_block_bytes=4096).fit(train)
        np.testing.assert_allclose(
            one_block.density(queries), many_blocks.density(queries),
            rtol=1e-12, atol=1e-15,
        )

    def test_unwhitened_and_alpha_extremes(self, clouds):
        train, queries = clouds
        for kde in (
            EpanechnikovKde(whiten=False).fit(train),
            AdaptiveKde(alpha=0.0).fit(train),
            AdaptiveKde(alpha=1.0).fit(train),
        ):
            np.testing.assert_allclose(
                kde.density(queries), _loop_density(kde, queries),
                rtol=1e-12, atol=1e-15,
            )


class TestEpanechnikovSampler:
    def test_offsets_live_in_the_unit_ball(self):
        offsets = _sample_unit_epanechnikov(5000, 3, np.random.default_rng(1))
        radii = np.linalg.norm(offsets, axis=1)
        assert radii.max() <= 1.0

    @pytest.mark.parametrize("d", [1, 2, 6])
    def test_radial_second_moment(self, d):
        # The kernel's radial law gives E[r^2] = d / (d + 4).
        offsets = _sample_unit_epanechnikov(40_000, d, np.random.default_rng(d))
        observed = float(np.mean(np.sum(offsets**2, axis=1)))
        assert observed == pytest.approx(d / (d + 4.0), rel=0.03)

    def test_sampling_is_deterministic_per_seed(self, clouds):
        train, _ = clouds
        kde = AdaptiveKde(alpha=0.5).fit(train)
        np.testing.assert_array_equal(kde.sample(500, rng=9), kde.sample(500, rng=9))

    def test_fixed_kde_samples_stay_within_bandwidth_reach(self, clouds):
        train, _ = clouds
        kde = EpanechnikovKde(whiten=False).fit(train)
        samples = kde.sample(1000, rng=3)
        # Every sample is center + h * (unit-ball offset): its distance to
        # the nearest training point can be at most h.
        d2 = (
            np.sum(samples**2, axis=1)[:, None]
            + np.sum(train**2, axis=1)[None, :]
            - 2.0 * samples @ train.T
        )
        nearest = np.sqrt(np.maximum(d2.min(axis=1), 0.0))
        assert nearest.max() <= kde.h + 1e-9


class TestOcsvmReferenceFixture:
    """Frozen optimum of the SMO solver on a fingerprint-sized problem.

    The numbers were captured from the maximal-violating-pair solver, now
    the dense-Gram oracle, on ``default_rng(42).standard_normal((400, 6))``
    with nu=0.08; they pin both its solution (rho, support set) and its
    trajectory (iteration count) to ~1e-12.  The production solver selects
    pairs by second-order gain, so it stops at a different point inside the
    ``tol`` = 1e-6 neighbourhood of the optimum: it must find the same
    support set, sit within 1e-8 of the frozen rho, and agree with the
    oracle to 1e-10 once both solve to ``tol`` = 1e-10.
    """

    @pytest.fixture(scope="class")
    def data(self):
        return np.random.default_rng(42).standard_normal((400, 6))

    def test_reference_solution(self, data):
        model = DenseMvpOneClassSvm(nu=0.08, seed=0).fit(data)
        assert model.rho_ == pytest.approx(0.3595916782773646, abs=1e-12)
        assert model.effective_gamma_ == pytest.approx(0.04598908353902973, abs=1e-14)
        assert model.support_vectors_.shape == (37, 6)
        assert model.n_iterations_ == 105
        assert float(model.support_vectors_.sum()) == pytest.approx(
            -17.660921191243737, abs=1e-10
        )
        assert float(np.linalg.norm(model.dual_coefs_)) == pytest.approx(
            0.17012268526666183, abs=1e-12
        )
        # nu bounds the training outlier fraction from above (soft ~ 1 - nu).
        assert trojan_free(model.decision_function(data)).mean() == pytest.approx(0.92, abs=1e-12)

    def test_production_solution(self, data):
        model = OneClassSvm(nu=0.08, seed=0).fit(data)
        assert model.rho_ == pytest.approx(0.3595916782773646, abs=1e-8)
        assert model.effective_gamma_ == pytest.approx(0.04598908353902973, abs=1e-14)
        assert model.support_vectors_.shape == (37, 6)
        assert model.n_iterations_ == 81
        assert float(model.support_vectors_.sum()) == pytest.approx(
            -17.660921191243737, abs=1e-10
        )
        assert trojan_free(model.decision_function(data)).mean() == pytest.approx(0.92, abs=1e-12)

    def test_production_agrees_with_oracle_at_tight_tol(self, data):
        model = OneClassSvm(nu=0.08, tol=1e-10, seed=0).fit(data)
        oracle = DenseMvpOneClassSvm(nu=0.08, tol=1e-10, seed=0).fit(data)
        np.testing.assert_array_equal(model.support_vectors_, oracle.support_vectors_)
        assert model.rho_ == pytest.approx(oracle.rho_, abs=1e-10)
        assert float(np.linalg.norm(model.dual_coefs_)) == pytest.approx(
            float(np.linalg.norm(oracle.dual_coefs_)), abs=1e-10
        )
        np.testing.assert_allclose(model.decision_function(data),
                                   oracle.decision_function(data), rtol=0, atol=1e-10)
        # At this gamma the Gram matrix is ill-conditioned, so a residual
        # below tol pins single coefficients only to a few times tol.
        np.testing.assert_allclose(model.dual_coefs_, oracle.dual_coefs_,
                                   rtol=0, atol=5e-10)

    def test_dual_feasibility(self, data):
        model = OneClassSvm(nu=0.08, seed=0).fit(data)
        c_bound = 1.0 / (0.08 * 400)
        assert float(model.dual_coefs_.sum()) == pytest.approx(1.0, abs=1e-9)
        assert model.dual_coefs_.min() > 0.0
        assert model.dual_coefs_.max() <= c_bound + 1e-12


class TestOcsvmDisplayLot:
    """Production and oracle boundaries score the display lot alike."""

    def test_scores_match_dense_oracle(self, monkeypatch):
        data = generate_experiment_data(PlatformConfig(seed=16))
        config = DetectorConfig(kde_samples=30_000, seed=11)
        production = run_table1(detector_config=config, data=data).detector
        monkeypatch.setattr(boundaries, "OneClassSvm", DenseMvpOneClassSvm)
        oracle = run_table1(detector_config=config, data=data).detector
        for name in BOUNDARY_NAMES:
            assert isinstance(oracle.boundaries[name].svm, DenseMvpOneClassSvm)
            np.testing.assert_allclose(
                production.boundaries[name].decision_scores(data.dutt_fingerprints),
                oracle.boundaries[name].decision_scores(data.dutt_fingerprints),
                rtol=0, atol=1e-6, err_msg=name,
            )


def _calibrate(data):
    return run_table1(detector_config=DetectorConfig(kde_samples=30_000, seed=11),
                      data=data).detector


def _assert_dense_scores(detector, fingerprints):
    for name in BOUNDARY_NAMES:
        region = detector.boundaries[name]
        np.testing.assert_array_equal(
            region.decision_scores(fingerprints),
            dense_decision_function(region.svm, region.whitener.transform(fingerprints)),
            err_msg=name,
        )


class TestBlockedScoringMatchesDenseOracle:
    """Blocked scoring with the underflow cut equals one dense kernel pass."""

    @pytest.fixture(scope="class")
    def display_lot(self):
        data = generate_experiment_data(PlatformConfig(seed=16))
        return data, _calibrate(data)

    def test_display_lot(self, display_lot):
        data, display_detector = display_lot
        _assert_dense_scores(display_detector, data.dutt_fingerprints)
        # The fit side is untouched: SMO effort and support sets as before.
        svms = [region.svm for region in display_detector.boundaries.values()]
        assert sum(svm.n_iterations_ for svm in svms) == 686
        assert sum(svm.support_vectors_.shape[0] for svm in svms) == 296

    @pytest.mark.parametrize("platform_seed", [33, 39])
    def test_cross_lot_dutts(self, platform_seed):
        data = generate_experiment_data(PlatformConfig(seed=platform_seed))
        _assert_dense_scores(_calibrate(data), data.dutt_fingerprints)

    def test_far_screening_lot(self, display_lot):
        _, display_detector = display_lot
        # The lot the screening benchmark serves: far from the display
        # lot's support vectors, so much of B5's kernel is underflow tail.
        lot = generate_experiment_data(PlatformConfig(seed=10_000, n_chips=342))
        devices = lot.dutt_fingerprints.shape[0]
        for name in ("B2", "B5"):
            n_support = display_detector.boundaries[name].svm.support_vectors_.shape[0]
            assert devices > _BLOCK_ENTRIES // n_support, name
        _assert_dense_scores(display_detector, lot.dutt_fingerprints)

    def test_one_device_batches(self, display_lot):
        data, display_detector = display_lot
        # screen-line sends one device per request, and a (1, d) batch takes
        # another BLAS path than the multi-row blocks above.  The screening
        # lot's kernel sums vanish against rho (every score is -rho), so
        # the display lot's devices, near the support vectors, are scored
        # alone too.
        lot = generate_experiment_data(PlatformConfig(seed=10_000, n_chips=342))
        for devices in (lot.dutt_fingerprints[:16], data.dutt_fingerprints[:16]):
            for row in devices:
                device = row[None, :]
                assert device.shape == (1, 6)
                _assert_dense_scores(display_detector, device)
