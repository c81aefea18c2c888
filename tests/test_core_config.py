"""DetectorConfig validation."""

import pytest

from repro.core.config import RETIRED_KEYS, DetectorConfig


def test_defaults_construct():
    config = DetectorConfig()
    assert config.kde_samples == 100_000
    assert not any(hasattr(config, key) for key in RETIRED_KEYS)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kde_samples=0),
        dict(kde_alpha=1.5),
        dict(kde_bandwidth=-1.0),
        dict(kde_bandwidth_scale=0.0),
        dict(noise_floor_rel=-0.1),
        dict(svm_nu=0.0),
        dict(svm_nu=1.2),
        dict(floor_ratio=2.0),
        dict(kmm_B=0.0),
        dict(kmm_resample_size=0),
        dict(svm_max_training_samples=5),
    ],
)
def test_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        DetectorConfig(**kwargs)


def test_accepts_boundary_values():
    DetectorConfig(kde_alpha=0.0)
    DetectorConfig(kde_alpha=1.0)
    DetectorConfig(svm_nu=1.0)
