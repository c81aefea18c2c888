"""Mahalanobis elliptic envelope."""

import numpy as np
import pytest
from scipy import stats

from repro.core.boundaries import trojan_free
from repro.experiments.baselines import EllipticEnvelope


@pytest.fixture()
def cloud():
    rng = np.random.default_rng(0)
    return rng.standard_normal((500, 3)) * np.array([2.0, 1.0, 0.5]) + [1.0, -2.0, 0.0]


class TestValidation:
    def test_contamination_range(self):
        with pytest.raises(ValueError):
            EllipticEnvelope(contamination=0.0)

    def test_floor_validation(self):
        with pytest.raises(ValueError):
            EllipticEnvelope(floor_ratio=0.0)
        with pytest.raises(ValueError):
            EllipticEnvelope(floor_sigma=-1.0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            EllipticEnvelope().decision_function(np.zeros((1, 3)))


class TestEnvelope:
    def test_contamination_matches_training_outliers(self, cloud):
        envelope = EllipticEnvelope(contamination=0.1).fit(cloud)
        outliers = 1.0 - trojan_free(envelope.decision_function(cloud)).mean()
        assert outliers == pytest.approx(0.1, abs=0.04)

    def test_mean_is_inside_far_point_outside(self, cloud):
        envelope = EllipticEnvelope().fit(cloud)
        assert trojan_free(envelope.decision_function(cloud.mean(axis=0)[None, :]))[0]
        far = cloud.mean(axis=0) + np.array([20.0, 0.0, 0.0])
        assert not trojan_free(envelope.decision_function(far[None, :]))[0]

    def test_mahalanobis_accounts_for_anisotropy(self, cloud):
        envelope = EllipticEnvelope().fit(cloud)
        center = cloud.mean(axis=0)
        # 3 units along the wide axis (sigma 2) vs the narrow axis (sigma 0.5).
        wide = envelope.mahalanobis_squared((center + [3.0, 0, 0])[None, :])[0]
        narrow = envelope.mahalanobis_squared((center + [0, 0, 3.0])[None, :])[0]
        assert narrow > wide

    def test_chi2_distance_statistics(self, cloud):
        envelope = EllipticEnvelope().fit(cloud)
        d2 = envelope.mahalanobis_squared(cloud)
        # Squared Mahalanobis distances of Gaussian data ~ chi2(d): mean = d.
        assert d2.mean() == pytest.approx(3.0, rel=0.15)

    def test_floor_sigma_tolerates_degenerate_direction(self):
        data = np.column_stack([np.linspace(0, 10, 200), np.zeros(200)])
        tight = EllipticEnvelope(floor_sigma=1e-9).fit(data)
        tolerant = EllipticEnvelope(floor_sigma=0.5).fit(data)
        probe = np.array([[5.0, 0.4]])
        assert not trojan_free(tight.decision_function(probe))[0]
        assert trojan_free(tolerant.decision_function(probe))[0]


class TestThresholdExactness:
    """The threshold is ``chi2.ppf(1 - contamination, d)`` bit for bit.

    ``fit`` evaluates it as ``2 * gammaincinv(d / 2, q)`` so that it never
    imports :mod:`scipy.stats`; that is the expression ``chi2.ppf`` itself
    reduces to, so A7 and exported envelopes keep the exact thresholds a
    ``chi2.ppf`` fit gave them.
    """

    @pytest.mark.parametrize("d", range(1, 13))
    def test_threshold_equals_chi2_ppf(self, d):
        data = np.random.default_rng(d).standard_normal((40, d))
        grid = np.concatenate([np.linspace(0.0025, 0.5, 200), [0.01, 0.05, 0.1, 0.25]])
        for contamination in grid:
            envelope = EllipticEnvelope(contamination=contamination).fit(data)
            assert envelope.threshold_ == stats.chi2.ppf(1.0 - contamination, df=d), (
                d, contamination,
            )
