"""Determinism: seed forms and tracing never move a bit.

Every stochastic step owns a random stream spawned from the master seed.
Simulation's seeding contract is checked here against the per-die oracle,
and a traced run of the platform and of the detector must reproduce the
untraced one bit for bit.
"""

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
