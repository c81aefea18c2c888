"""Assembly of the full experimentation platform (paper Section 3.1).

One call to :func:`generate_experiment_data` produces everything the
detector consumes:

* the trusted Spice deck and a noise-free Monte Carlo campaign over it
  (``n`` golden devices, their PCMs and fingerprints);
* a foundry whose operating point has drifted from the deck, fabricating
  40 chips in one lot;
* three design versions per chip — Trojan-free, Trojan I (amplitude leak),
  Trojan II (frequency leak) — measured on a noisy silicon bench with the
  same frozen stimuli as the simulation: 120 DUTTs, 40 TF + 80 TI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.circuits.montecarlo import MonteCarloEngine
from repro.circuits.spicemodel import SpiceDeck, default_spice_deck
from repro.obs.trace import span
from repro.process.parameters import OperatingPointShift
from repro.process.population import DiePopulation
from repro.silicon.foundry import Foundry
from repro.silicon.pcm import PCMSuite
from repro.testbed.campaign import FingerprintCampaign
from repro.trojans.amplitude import AmplitudeModulationTrojan
from repro.trojans.frequency import FrequencyModulationTrojan
from repro.utils.rng import spawn_children


#: Relative jitter of simulated measurements: post-layout Monte Carlo
#: outputs carry extraction and numerical-convergence noise comparable to
#: bench instrument noise.  Modelled as multiplicative gain noise on the
#: simulated fingerprint and PCM readings.
SIM_NOISE = 0.0015
#: Relative gain error of the silicon PCM (e-test) measurement.  Production
#: kerf measurements are single-shot with limited timing resolution —
#: considerably noisier than the averaged RF power measurements of the
#: fingerprint bench.
PCM_NOISE = 0.05
#: Magnitude of the systematic RF extraction error of the design kit (see
#: :func:`rf_model_error`): the Spice model tracks digital structures but
#: misestimates the large analog layouts.
RF_MODEL_ERROR_SCALE = 0.35


@dataclass
class PlatformConfig:
    """Knobs of the synthetic silicon experiment.

    The paper's fixed protocol is not configurable: ``nm = 6`` ciphertext
    blocks (the campaign default), one fabrication lot, and the simulation,
    PCM and RF-model error levels :data:`SIM_NOISE`, :data:`PCM_NOISE` and
    :data:`RF_MODEL_ERROR_SCALE`.

    Parameters
    ----------
    n_chips:
        Fabricated chips, all from one lot; each hosts three design versions
        (TF, T-I, T-II), so the DUTT population is ``3 * n_chips`` devices.
    n_monte_carlo:
        Simulated golden devices.
    drift_scale:
        Magnitude of the foundry operating-point drift relative to
        :meth:`OperatingPointShift.typical_drift` (0 = silicon matches the
        deck exactly).
    trojan1_depth / trojan2_depth:
        Modulation depths of the amplitude / frequency Trojans.
    pcm_suite_name:
        PCM suite: ``"paper"`` (one path delay), ``"extended"`` (+ ring
        oscillator) or ``"full"`` (+ digital fmax) — ablation A3.
    seed:
        Master seed of the whole experiment.
    """

    n_chips: int = 40
    n_monte_carlo: int = 100
    drift_scale: float = 0.45
    trojan1_depth: float = 0.17
    trojan2_depth: float = 0.17
    pcm_suite_name: str = "paper"
    seed: int = 16

    def __post_init__(self):
        if self.n_chips < 2:
            raise ValueError(f"n_chips must be >= 2, got {self.n_chips}")
        if self.n_monte_carlo < 10:
            raise ValueError(f"n_monte_carlo must be >= 10, got {self.n_monte_carlo}")
        if self.drift_scale < 0:
            raise ValueError(f"drift_scale must be non-negative, got {self.drift_scale}")
        if self.pcm_suite_name not in ("paper", "extended", "full"):
            raise ValueError(
                f"pcm_suite_name must be 'paper', 'extended' or 'full', "
                f"got {self.pcm_suite_name!r}"
            )


@dataclass
class ExperimentData:
    """All measurements of one experiment run.

    DUTT arrays are ordered: ``n_chips`` Trojan-free devices, then
    ``n_chips`` Trojan-I devices, then ``n_chips`` Trojan-II devices.
    """

    sim_pcms: np.ndarray
    sim_fingerprints: np.ndarray
    dutt_pcms: np.ndarray
    dutt_fingerprints: np.ndarray
    infested: np.ndarray
    trojan_names: List[str] = field(default_factory=list)
    campaign: Optional[FingerprintCampaign] = None

    @property
    def n_devices(self) -> int:
        """Total number of devices under Trojan test."""
        return int(self.dutt_fingerprints.shape[0])

    def trojan_free_fingerprints(self) -> np.ndarray:
        """Fingerprints of the Trojan-free DUTTs."""
        return self.dutt_fingerprints[~self.infested]


def rf_model_error(scale: float) -> dict:
    """Structure-specific silicon-vs-model discrepancy of the RF chain.

    At ``scale`` 1.0 the silicon PA drives ~5 % more current than any
    simulation predicts and the pulse shaper runs ~4 % heavy on parasitics
    (see :class:`~repro.silicon.foundry.FabricatedDie`).
    """
    return {
        "uwb_pa": {"mobility_n": +0.05 * scale},
        "uwb_shaper": {"cpar": +0.04 * scale},
    }


def build_foundry(config: PlatformConfig, deck: SpiceDeck, seed) -> Foundry:
    """The drifted foundry that fabricates the DUTT population."""
    return Foundry(
        deck_nominal=deck.nominal,
        variation=deck.variation,
        shift=OperatingPointShift.typical_drift(scale=config.drift_scale),
        analog_model_error=rf_model_error(RF_MODEL_ERROR_SCALE),
        seed=seed,
    )


def generate_experiment_data(config: Optional[PlatformConfig] = None) -> ExperimentData:
    """Run the full synthetic experiment and return all measurements.

    Every random stream below is an independent child of the master seed:
    the campaign stimuli, the Monte Carlo draw, the foundry lot and the
    bench each own one.
    """
    config = config or PlatformConfig()

    with span("platform.generate_data", n_chips=config.n_chips,
              n_monte_carlo=config.n_monte_carlo, seed=config.seed):
        rng_campaign, rng_mc, rng_foundry, rng_bench = spawn_children(config.seed, 4)

        pcm_suite = {
            "paper": PCMSuite.paper_default,
            "extended": PCMSuite.extended,
            "full": PCMSuite.full,
        }[config.pcm_suite_name]()
        deck = default_spice_deck()

        # The campaign's stimuli feed both halves.
        sim_campaign = FingerprintCampaign.random_stimuli(
            seed=rng_campaign, pcm_suite=pcm_suite
        )

        # ---- pre-manufacturing: Monte Carlo over the deck.  The simulator
        # has no bench instruments, but post-layout MC output carries
        # numerical / extraction jitter; modelled as small multiplicative
        # noise. ----
        engine = MonteCarloEngine(deck, sim_campaign, numerical_noise=SIM_NOISE)
        mc = engine.run(config.n_monte_carlo, seed=rng_mc)

        # ---- silicon: fabrication at the drifted operating point, then the
        # bench sweep with the same frozen stimuli and noisy instruments ----
        bench = sim_campaign.silicon_bench(seed=rng_bench, pcm_noise=PCM_NOISE)

        foundry = build_foundry(config, deck, seed=rng_foundry)
        # One population for the three versions: they are the same
        # dies, so the per-structure mismatch draws are made once.
        population = DiePopulation.from_dies(foundry.fabricate(config.n_chips))
        trojans = [
            (None, "TF"),
            (AmplitudeModulationTrojan(depth=config.trojan1_depth), "T1"),
            (FrequencyModulationTrojan(depth=config.trojan2_depth), "T2"),
        ]
        devices = []
        for trojan, version in trojans:
            devices.extend(
                bench.measure_population(population, trojan=trojan, version=version)
            )
        return ExperimentData(
            sim_pcms=mc.pcms,
            sim_fingerprints=mc.fingerprints,
            dutt_pcms=np.vstack([d.pcms for d in devices]),
            dutt_fingerprints=np.vstack([d.fingerprint for d in devices]),
            infested=np.array([d.infested for d in devices], dtype=bool),
            trojan_names=[d.trojan_name for d in devices],
            campaign=bench,
        )
