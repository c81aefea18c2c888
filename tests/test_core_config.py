"""DetectorConfig validation."""

import dataclasses

import pytest

from repro.core.config import RETIRED_KEYS, DetectorConfig


def test_defaults_construct():
    config = DetectorConfig()
    assert config.kde_samples == 100_000
    assert not any(hasattr(config, key) for key in RETIRED_KEYS)


def test_fields_are_the_settable_choices():
    names = [field.name for field in dataclasses.fields(DetectorConfig)]
    assert names == ["kde_samples", "kde_alpha", "svm_max_training_samples", "seed"]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kde_samples=0),
        dict(kde_alpha=1.5),
        dict(kde_alpha=-0.1),
        dict(kde_alpha=float("nan")),
        dict(svm_max_training_samples=5),
        dict(svm_max_training_samples=9),
    ],
    ids=lambda kwargs: ",".join(f"{key}={value}" for key, value in kwargs.items()),
)
def test_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        DetectorConfig(**kwargs)


def test_accepts_boundary_values():
    DetectorConfig(kde_alpha=0.0)
    DetectorConfig(kde_alpha=1.0)
    DetectorConfig(kde_samples=1, svm_max_training_samples=10)
