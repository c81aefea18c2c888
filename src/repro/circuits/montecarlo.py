"""Spice-level Monte Carlo simulation of golden devices.

This is the paper's pre-manufacturing data source: ``n`` virtual Trojan-free
devices drawn from the *trusted deck's* process statistics, each measured for
its PCM vector and side-channel fingerprint.  Simulated measurements are
noise-free (a simulator has ideal instruments); the model-vs-silicon
discrepancy comes from the deck nominal, not the bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.circuits.spicemodel import SpiceDeck
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.process.parameters import ProcessParameters
from repro.process.population import DiePopulation, sample_structure_params
from repro.utils.rng import SeedLike, seeded_generators, spawn_entropy, spawn_seed_sequences


@dataclass
class SimulatedDie:
    """A virtual die drawn by one Monte Carlo iteration.

    Exposes the same ``structure_params`` interface as
    :class:`~repro.silicon.foundry.FabricatedDie`, so the same measurement
    campaign code runs on simulation and silicon.  The engine itself works
    on whole :class:`~repro.process.population.DiePopulation` arrays; this
    scalar die is what :meth:`FingerprintCampaign.measure_device
    <repro.testbed.campaign.FingerprintCampaign.measure_device>` measures.
    """

    index: int
    die_params: ProcessParameters
    deck: SpiceDeck
    mismatch_seed: int
    _structure_cache: Dict[str, ProcessParameters] = field(default_factory=dict, repr=False)

    @property
    def variation(self):
        """The variation model governing this die's mismatch streams."""
        return self.deck.variation

    def structure_params(self, structure: str) -> ProcessParameters:
        """Local (mismatch) parameters of the named structure, deterministic."""
        if structure not in self._structure_cache:
            self._structure_cache[structure] = sample_structure_params(
                self.deck.variation, self.die_params, self.mismatch_seed, structure
            )
        return self._structure_cache[structure]

    def label(self) -> str:
        """Identifier used in reports."""
        return f"MC{self.index}"


def sample_device_population(deck: SpiceDeck, entropy: np.ndarray) -> DiePopulation:
    """Draw a whole Monte Carlo device population as parallel arrays.

    ``entropy`` holds one row per device: the assembled ``uint32`` entropy
    of its seed sequence (:func:`~repro.utils.rng.spawn_entropy` builds the
    rows of a root's spawned children).  Each device's generator is
    consumed in exactly the order of a scalar draw — ``1 + k_lot`` normals
    for :meth:`SpiceDeck.sample_die <repro.circuits.spicemodel.SpiceDeck.sample_die>`'s
    lot draw, ``1 + k_die`` for its die draw (a single vectorized
    ``standard_normal`` of that length yields the identical stream), then
    one mismatch-seed integer — so row ``i`` is bitwise the
    :class:`SimulatedDie` a device-at-a-time draw from
    ``np.random.SeedSequence(entropy[i])`` builds.
    """
    n = entropy.shape[0]
    variation = deck.variation
    k_lot = variation.correlated_draw_count(variation.lot_sigma)
    k_die = variation.correlated_draw_count(variation.die_sigma)
    z = np.empty((n, k_lot + k_die), dtype=float)
    mismatch = np.empty(n, dtype=np.int64)
    for i, gen in enumerate(seeded_generators(entropy)):
        gen.standard_normal(out=z[i])
        mismatch[i] = gen.integers(0, 2**63 - 1)
    lot = variation.apply_correlated(
        deck.nominal, variation.lot_sigma, z[:, 0], z[:, 1:k_lot]
    )
    die = variation.apply_correlated(
        lot, variation.die_sigma, z[:, k_lot], z[:, k_lot + 1:]
    )
    return DiePopulation(
        die_params=die,
        mismatch_seeds=mismatch,
        variation=variation,
        labels=[f"MC{i}" for i in range(n)],
    )


@dataclass
class MonteCarloResult:
    """Output of one Monte Carlo campaign.

    Attributes
    ----------
    pcms:
        ``(n, np)`` PCM measurement matrix of the simulated golden devices.
    fingerprints:
        ``(n, nm)`` side-channel fingerprint matrix.
    """

    pcms: np.ndarray
    fingerprints: np.ndarray

    def __post_init__(self):
        self.pcms = np.asarray(self.pcms, dtype=float)
        self.fingerprints = np.asarray(self.fingerprints, dtype=float)
        if self.pcms.shape[0] != self.fingerprints.shape[0]:
            raise ValueError("pcms and fingerprints must describe the same devices")

    @property
    def n_devices(self) -> int:
        """Number of simulated devices."""
        return int(self.pcms.shape[0])


class MonteCarloEngine:
    """Runs Spice-level Monte Carlo over the trusted deck.

    Parameters
    ----------
    deck:
        The trusted simulation model.
    campaign:
        A noise-free measurement campaign (the simulator's ideal bench).
        Passing a campaign with instruments attached raises ``ValueError`` —
        simulated data must not carry bench noise.
    numerical_noise:
        Relative jitter applied to every simulated reading.  Post-layout
        Monte Carlo results are not infinitely precise: parasitic
        extraction, reduced-order models and transient-convergence
        tolerances contribute noise comparable to good bench instruments.
    """

    def __init__(self, deck: SpiceDeck, campaign, numerical_noise: float = 0.0):
        if campaign.power_meter is not None or campaign.delay_analyzer is not None:
            raise ValueError("Monte Carlo simulation requires a noise-free campaign")
        if numerical_noise < 0:
            raise ValueError(f"numerical_noise must be non-negative, got {numerical_noise}")
        self.deck = deck
        self.campaign = campaign
        self.numerical_noise = float(numerical_noise)

    def run(self, n: int, seed: SeedLike = None) -> MonteCarloResult:
        """Simulate ``n`` golden devices and measure PCMs + fingerprints.

        Every device owns a random stream spawned from ``seed`` (seeded
        from its spawned child's entropy row, with no seed sequence built
        per device), and the numerical-noise draw comes from its own
        dedicated stream.  The population is drawn and measured as array
        programs (see
        :func:`sample_device_population` and
        :meth:`~repro.testbed.campaign.FingerprintCampaign.measure_population_arrays`).
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        with span("mc.run", n=n):
            device_root, noise_root = spawn_seed_sequences(seed, 2)
            population = sample_device_population(
                self.deck, spawn_entropy([device_root], n)
            )
            pcms, fingerprints = self.campaign.measure_population_arrays(population)
            obs_metrics.counter("mc.devices_simulated").inc(n)
            if self.numerical_noise > 0:
                noise_rng = np.random.default_rng(noise_root)
                pcms = pcms * (
                    1.0 + self.numerical_noise * noise_rng.standard_normal(pcms.shape)
                )
                fingerprints = fingerprints * (
                    1.0
                    + self.numerical_noise
                    * noise_rng.standard_normal(fingerprints.shape)
                )
        return MonteCarloResult(pcms=pcms, fingerprints=fingerprints)
