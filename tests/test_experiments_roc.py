"""Operating-curve analysis."""

import numpy as np
import pytest

from repro.core.boundaries import TrustedRegion
from repro.experiments.roc import operating_curve


@pytest.fixture(scope="module")
def region_and_data(fitted_detector, experiment_data):
    return (
        fitted_detector.boundaries["B5"],
        experiment_data.dutt_fingerprints,
        experiment_data.infested,
    )


def test_curve_endpoints(region_and_data):
    region, fingerprints, infested = region_and_data
    curve = operating_curve(region, fingerprints, infested)
    first, last = curve.points[0], curve.points[-1]
    # threshold -inf: everything passes -> all Trojans escape, no false alarms.
    assert first.fp_count == int(infested.sum()) and first.fn_count == 0
    # threshold +inf: nothing passes -> no escapes, every clean device flagged.
    assert last.fp_count == 0 and last.fn_count == int((~infested).sum())


def test_fp_monotone_in_threshold(region_and_data):
    region, fingerprints, infested = region_and_data
    curve = operating_curve(region, fingerprints, infested)
    fp = [p.fp_count for p in curve.points]
    assert all(a >= b for a, b in zip(fp, fp[1:]))


def test_natural_point_matches_prediction(region_and_data):
    region, fingerprints, infested = region_and_data
    curve = operating_curve(region, fingerprints, infested)
    predictions = region.predict_trojan_free(fingerprints)
    assert curve.natural_point.fp_count == int(np.sum(predictions & infested))
    assert curve.natural_point.fn_count == int(np.sum(~predictions & ~infested))


def test_auc_perfect_for_separated_scores():
    rng = np.random.default_rng(0)
    clean = rng.standard_normal((100, 2)) * 0.1
    region = TrustedRegion(nu=0.05, noise_floor_rel=0.0, seed=0).fit(clean)
    trojans = clean[:50] + 5.0
    fingerprints = np.vstack([clean, trojans])
    infested = np.array([False] * 100 + [True] * 50)
    curve = operating_curve(region, fingerprints, infested)
    assert curve.auc == pytest.approx(1.0)
    assert curve.zero_escape_fn() == 0


def test_rates_and_format(region_and_data):
    region, fingerprints, infested = region_and_data
    curve = operating_curve(region, fingerprints, infested)
    point = curve.natural_point
    assert 0 <= point.fp_count <= point.n_infested
    assert 0 <= point.fn_count <= point.n_trojan_free
    text = curve.format()
    assert "AUC" in text and "zero escapes" in text


def test_label_shape_validated(region_and_data):
    region, fingerprints, _ = region_and_data
    with pytest.raises(ValueError, match="label"):
        operating_curve(region, fingerprints, np.zeros(3, dtype=bool))
