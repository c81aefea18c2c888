"""Determinism: worker counts, seed forms and tracing never move a bit.

The parallelism contract (see ``repro.utils.parallel``) is that every work
item owns a pre-spawned random stream, so the *number* of workers can never
change a single bit of the output.  The only pool in the library runs the
detector's boundary fits; the CI box may have one CPU, so the tests force
real process pools by patching ``os.cpu_count``.  Simulation has no pool,
but its seeding contract is checked here against the per-die oracle.
"""

from unittest import mock

import numpy as np
import pytest

from repro import obs
from repro.circuits.montecarlo import MonteCarloEngine
from repro.circuits.spicemodel import default_spice_deck
from repro.core.pipeline import GoldenChipFreeDetector
from repro.experiments.platformcfg import generate_experiment_data
from repro.testbed.campaign import FingerprintCampaign
from tests.conftest import small_detector_config, small_platform
from tests.oracles import monte_carlo_loop


def _with_fake_cores(n):
    return mock.patch("os.cpu_count", return_value=n)


@pytest.fixture(scope="module")
def engine():
    campaign = FingerprintCampaign.random_stimuli(nm=4, seed=0)
    return MonteCarloEngine(default_spice_deck(), campaign, numerical_noise=0.0015)


class TestMonteCarloBitIdentity:
    def test_generator_seed_also_invariant(self, engine):
        # A Generator seed is turned into per-device streams exactly as the
        # per-die oracle does it.
        loop = monte_carlo_loop(engine, 10, seed=np.random.default_rng(5))
        batched = engine.run(10, seed=np.random.default_rng(5))
        np.testing.assert_array_equal(batched.pcms, loop.pcms)
        np.testing.assert_array_equal(batched.fingerprints, loop.fingerprints)


class TestDetectorBitIdentity:
    def test_boundary_fits_match_serial(self, experiment_data):
        detectors = {}
        for n_jobs in (1, 4):
            detector = GoldenChipFreeDetector(small_detector_config(n_jobs=n_jobs))
            with _with_fake_cores(4):
                detector.fit_premanufacturing(
                    experiment_data.sim_pcms, experiment_data.sim_fingerprints
                )
                detector.fit_silicon(experiment_data.dutt_pcms)
            detectors[n_jobs] = detector
        serial, pooled = detectors[1], detectors[4]
        assert set(serial.boundaries) == set(pooled.boundaries)
        for name, region in serial.boundaries.items():
            other = pooled.boundaries[name]
            np.testing.assert_array_equal(
                other._learner.support_vectors_, region._learner.support_vectors_
            )
            np.testing.assert_array_equal(
                other._learner.dual_coefs_, region._learner.dual_coefs_
            )
            assert other._learner.rho_ == region._learner.rho_
        metrics_serial = serial.evaluate(
            experiment_data.dutt_fingerprints, experiment_data.infested
        )
        metrics_pooled = pooled.evaluate(
            experiment_data.dutt_fingerprints, experiment_data.infested
        )
        for name, metric in metrics_serial.items():
            assert metrics_pooled[name].fn_count == metric.fn_count
            assert metrics_pooled[name].fp_count == metric.fp_count


class TestTracingBitIdentity:
    """Instrumentation reads clocks only: tracing must not move one bit."""

    @pytest.fixture(autouse=True)
    def _clean_session(self):
        yield
        if obs.enabled():
            obs.disable()

    def test_traced_experiment_matches_untraced(self):
        plain = generate_experiment_data(small_platform(n_chips=8, n_monte_carlo=20))
        obs.enable()
        traced = generate_experiment_data(small_platform(n_chips=8, n_monte_carlo=20))
        spans, _ = obs.disable()
        assert spans, "tracing session recorded no spans"
        np.testing.assert_array_equal(traced.sim_pcms, plain.sim_pcms)
        np.testing.assert_array_equal(traced.sim_fingerprints, plain.sim_fingerprints)
        np.testing.assert_array_equal(traced.dutt_pcms, plain.dutt_pcms)
        np.testing.assert_array_equal(
            traced.dutt_fingerprints, plain.dutt_fingerprints
        )

    def test_traced_pool_matches_untraced_serial(self, experiment_data):
        plain = GoldenChipFreeDetector(small_detector_config())
        plain.fit_premanufacturing(
            experiment_data.sim_pcms, experiment_data.sim_fingerprints
        )
        plain.fit_silicon(experiment_data.dutt_pcms)
        obs.enable()
        traced = GoldenChipFreeDetector(small_detector_config(n_jobs=4))
        with _with_fake_cores(4):
            traced.fit_premanufacturing(
                experiment_data.sim_pcms, experiment_data.sim_fingerprints
            )
            traced.fit_silicon(experiment_data.dutt_pcms)
        spans, _ = obs.disable()
        assert any(s.worker is not None for s in spans), "pool did not engage"
        fingerprints = experiment_data.dutt_fingerprints
        traced_scores = traced.decision_scores_batch(fingerprints)
        for name, scores in plain.decision_scores_batch(fingerprints).items():
            np.testing.assert_array_equal(traced_scores[name], scores)

    def test_traced_detector_matches_untraced(self, experiment_data):
        def fit_and_evaluate():
            detector = GoldenChipFreeDetector(small_detector_config())
            detector.fit_premanufacturing(
                experiment_data.sim_pcms, experiment_data.sim_fingerprints
            )
            detector.fit_silicon(experiment_data.dutt_pcms)
            return detector.evaluate(
                experiment_data.dutt_fingerprints, experiment_data.infested
            )

        plain = fit_and_evaluate()
        obs.enable()
        traced = fit_and_evaluate()
        obs.disable()
        for name, metric in plain.items():
            assert traced[name].fn_count == metric.fn_count
            assert traced[name].fp_count == metric.fp_count
