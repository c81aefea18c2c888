"""Measurement campaign: fingerprints and PCM vectors for device populations.

The paper's measurement protocol, reproduced exactly:

* side-channel fingerprint = measured output power while transmitting
  ``nm = 6`` randomly chosen (then frozen) 128-bit ciphertext blocks,
  encrypted with a randomly chosen (then frozen) key;
* PCM vector = ``np`` measurements of simple on-die monitor structures
  (default: one digital path delay).

One campaign object owns the frozen key/plaintexts and the bench instruments,
so every device — simulated or fabricated, Trojan-free or infested — is
measured under identical stimuli.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.crypto.aes import aes128_encrypt_blocks
from repro.crypto.bits import bytes_to_bits, random_block, random_key
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.process.population import DiePopulation
from repro.rf.channel import AwgnChannel
from repro.rf.receiver import BandPassReceiver
from repro.rf.uwb import population_center_frequency_ghz, population_output_amplitude
from repro.silicon.instruments import DelayAnalyzer, Instrument, PowerMeter
from repro.silicon.pcm import PCMSuite
from repro.testbed.chip import WirelessCryptoChip
from repro.trojans.base import TrojanModel
from repro.utils.rng import SeedLike, as_generator, seeded_generators, spawn_entropy


@dataclass
class MeasuredDevice:
    """One measured device under Trojan test (DUTT)."""

    label: str
    pcms: np.ndarray
    fingerprint: np.ndarray
    infested: bool
    trojan_name: str = "none"


@dataclass
class FingerprintCampaign:
    """Frozen stimuli + bench used to measure every device identically.

    Parameters
    ----------
    key:
        The on-chip AES key (frozen for the whole experiment).
    plaintexts:
        The ``nm`` plaintext blocks whose ciphertext transmissions are
        measured.  Drawn once with :meth:`random_stimuli`.
    pcm_suite:
        The PCM structures measured on each die.
    receiver:
        Band-limited power measurement front-end.
    channel:
        Wireless channel between chip and bench (``None`` = ideal).
    power_meter / delay_analyzer:
        Bench instruments (``None`` = noise-free readings, as in Spice).
    instrument_root:
        Master :class:`~numpy.random.SeedSequence` for *per-device* instrument
        streams: :meth:`measure_population` spawns one child seed per device
        and draws that device's instrument noise from it, so the noise a
        device sees does not depend on measurement order.  Required by
        :meth:`measure_population` whenever instruments are attached;
        :meth:`silicon_bench` sets it.
    """

    key: bytes
    plaintexts: List[bytes]
    pcm_suite: PCMSuite = field(default_factory=PCMSuite.paper_default)
    receiver: BandPassReceiver = field(default_factory=BandPassReceiver)
    channel: Optional[AwgnChannel] = None
    power_meter: Optional[PowerMeter] = None
    delay_analyzer: Optional[DelayAnalyzer] = None
    instrument_root: Optional[np.random.SeedSequence] = field(default=None, repr=False)
    _cipher_bits: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if len(self.key) != 16:
            raise ValueError(f"key must be 16 bytes, got {len(self.key)}")
        if not self.plaintexts:
            raise ValueError("campaign needs at least one plaintext block")
        for block in self.plaintexts:
            if len(block) != 16:
                raise ValueError("every plaintext block must be 16 bytes")

    @classmethod
    def random_stimuli(
        cls,
        nm: int = 6,
        seed: SeedLike = None,
        pcm_suite: Optional[PCMSuite] = None,
        receiver: Optional[BandPassReceiver] = None,
    ) -> "FingerprintCampaign":
        """Draw the frozen key and ``nm`` plaintext blocks.

        The returned campaign is noise-free (it models Spice measurements);
        :meth:`silicon_bench` derives the noisy physical bench from it.
        """
        if nm <= 0:
            raise ValueError(f"nm must be positive, got {nm}")
        rng = as_generator(seed)
        key = random_key(rng)
        plaintexts = [random_block(rng) for _ in range(nm)]
        return cls(
            key=key,
            plaintexts=plaintexts,
            pcm_suite=pcm_suite or PCMSuite.paper_default(),
            receiver=receiver or BandPassReceiver(),
        )

    @property
    def nm(self) -> int:
        """Fingerprint dimensionality (number of measured block powers)."""
        return len(self.plaintexts)

    @property
    def cipher_bits(self) -> np.ndarray:
        """``(nm, 128)`` bits of the ciphertext blocks, encrypted once.

        The key and plaintexts are frozen for the campaign's lifetime, so
        the blocks are encrypted on first use and the read-only bits are
        reused by every measurement (and by :meth:`silicon_bench` copies).
        """
        if self._cipher_bits is None:
            blocks = np.frombuffer(b"".join(self.plaintexts), dtype=np.uint8)
            bits = np.unpackbits(
                aes128_encrypt_blocks(self.key, blocks.reshape(self.nm, 16)), axis=1
            )
            bits.flags.writeable = False
            self._cipher_bits = bits
        return self._cipher_bits

    @property
    def np_dim(self) -> int:
        """PCM vector dimensionality."""
        return len(self.pcm_suite)

    def silicon_bench(self, seed: SeedLike = None,
                      pcm_noise: float = 0.015) -> "FingerprintCampaign":
        """A copy of this campaign with noisy bench instruments attached.

        Used to measure fabricated silicon with the same stimuli that the
        (noise-free) simulation campaign used.  ``pcm_noise`` is the relative
        gain error of the PCM delay measurement: e-test readings on the kerf
        are single-shot production measurements and are considerably noisier
        than the averaged RF power measurements of the fingerprint bench.
        """
        rng = as_generator(seed)
        bench = FingerprintCampaign(
            key=self.key,
            plaintexts=list(self.plaintexts),
            pcm_suite=self.pcm_suite,
            receiver=self.receiver,
            channel=self.channel,
            power_meter=PowerMeter(seed=rng),
            delay_analyzer=DelayAnalyzer(seed=rng, gain_sigma=pcm_noise),
            instrument_root=np.random.SeedSequence(int(rng.integers(0, 2**63 - 1))),
        )
        bench._cipher_bits = self.cipher_bits
        return bench

    # ------------------------------------------------------------------
    # measurements
    # ------------------------------------------------------------------

    def fingerprint(self, chip: WirelessCryptoChip) -> np.ndarray:
        """Measure the ``nm``-dimensional power fingerprint of one chip."""
        powers = []
        for plaintext in self.plaintexts:
            train = chip.transmit_plaintext(plaintext)
            if self.channel is not None:
                train = self.channel.propagate(train)
            power = self.receiver.block_power(train)
            if self.power_meter is not None:
                power = self.power_meter.read(power)
            powers.append(power)
        return np.asarray(powers, dtype=float)

    def pcm_vector(self, die) -> np.ndarray:
        """Measure the PCM vector of one die.

        Each monitor is a distinct on-die structure with its own local
        mismatch parameters; monitors are shared by all design versions on
        the die (there is one PCM per die, not per version).
        """
        readings = []
        for monitor in self.pcm_suite.monitors:
            local = die.structure_params(f"pcm.{monitor.name}")
            value = monitor.measure(local)
            if self.delay_analyzer is not None:
                value = self.delay_analyzer.read(value)
            readings.append(value)
        return np.asarray(readings, dtype=float)

    def measure_device(
        self,
        die,
        trojan: Optional[TrojanModel] = None,
        version: str = "TF",
    ) -> MeasuredDevice:
        """Measure one design version on one die: PCMs + fingerprint."""
        chip = WirelessCryptoChip(die=die, key=self.key, trojan=trojan, version=version)
        label = getattr(die, "label", lambda: "die")()
        device = MeasuredDevice(
            label=f"{label}/{version}",
            pcms=self.pcm_vector(die),
            fingerprint=self.fingerprint(chip),
            infested=trojan is not None,
            trojan_name=trojan.name if trojan is not None else "none",
        )
        obs_metrics.counter("campaign.devices_measured").inc()
        return device

    def measure_population(
        self,
        dies,
        trojan: Optional[TrojanModel] = None,
        version: str = "TF",
    ) -> List[MeasuredDevice]:
        """Measure one design version across a die population.

        The whole population is evaluated as array programs — one AES
        encryption per plaintext, vectorized analog models, batched
        instrument noise — and device ``i`` is bitwise what
        :meth:`measure_device` reads on die ``i``.

        ``dies`` is a sequence of scalar dies or a
        :class:`~repro.process.population.DiePopulation` built from them.
        A lot measured as several design versions (TF, T1, T2) passes one
        population to every call, so its per-structure mismatch draws are
        made once and shared.

        A bench with instruments draws each device's noise from its own
        stream spawned off ``instrument_root`` (see :meth:`silicon_bench`);
        the spawn is stateful, so consecutive populations (a TF, T1, T2
        sweep) get fresh, non-overlapping per-device seeds in call order.
        A bench with instruments but no ``instrument_root`` is rejected.
        """
        if not isinstance(dies, DiePopulation):
            dies = list(dies)
        has_instruments = (self.power_meter is not None
                           or self.delay_analyzer is not None)
        if has_instruments and self.instrument_root is None:
            raise ValueError(
                "measure_population needs per-device instrument streams: "
                "build noisy benches with silicon_bench()"
            )
        with span("campaign.measure_population", version=version, n=len(dies)):
            if not dies:
                return []
            population = (dies if isinstance(dies, DiePopulation)
                          else DiePopulation.from_dies(dies))
            seeds = self.instrument_root.spawn(len(dies)) if has_instruments else None
            pcms, fingerprints = self.measure_population_arrays(
                population, trojan=trojan, version=version, instrument_seeds=seeds
            )
            return [
                MeasuredDevice(
                    label=f"{population.label(i)}/{version}",
                    pcms=pcms[i].copy(),
                    fingerprint=fingerprints[i].copy(),
                    infested=trojan is not None,
                    trojan_name=trojan.name if trojan is not None else "none",
                )
                for i in range(len(dies))
            ]

    def measure_population_arrays(
        self,
        population: DiePopulation,
        trojan: Optional[TrojanModel] = None,
        version: str = "TF",
        instrument_seeds=None,
    ):
        """Batched measurement core: ``(pcms, fingerprints)`` matrices.

        Returns the ``(n, np)`` PCM matrix and ``(n, nm)`` fingerprint matrix
        of the population; row ``i`` is bitwise identical to
        :meth:`measure_device` on die ``i`` (measured with per-device
        instruments seeded from the (power, delay) children
        ``instrument_seeds[i].spawn(2)`` would give, when given; the seeds
        themselves are not advanced).

        Three facts make exactness possible:

        * ciphertexts depend only on (key, plaintext), so each block is
          encrypted once per campaign (:attr:`cipher_bits`) — not once per
          device or per call — and every die shares the same pulse
          positions;
        * the analog compact models are chains of elementwise ufuncs, which
          numpy evaluates identically for scalars and arrays (the one
          exception, ``x ** alpha``, is routed through ``math.pow`` — see
          :func:`repro.circuits.mosfet.elementwise_pow`);
        * instrument noise consumes per-device generator streams in the
          same (reading-ordered) sequence the scalar bench does.
        """
        with span("campaign.measure_arrays", n=len(population),
                  nm=self.nm, np=self.np_dim, version=version):
            pcms = self.pcm_suite.measure_population(population)
            fingerprints = self._population_fingerprints(population, trojan, version)
        obs_metrics.counter("campaign.devices_measured").inc(len(population))
        if instrument_seeds is not None:
            # Mirrors the per-device bench build: each device seed spawns
            # (power, delay) streams, consumed in measurement order — PCMs
            # on the delay stream, then block powers on the power stream —
            # two normals (gain z, offset z) per reading.  Only attached
            # instruments' streams are seeded, from the children's entropy
            # rows; no seed sequence is spawned.
            n = len(population)
            power_z = np.empty((n, 2 * self.nm)) if self.power_meter is not None else None
            delay_z = (np.empty((n, 2 * self.np_dim))
                       if self.delay_analyzer is not None else None)
            drawn = [(child, z) for child, z in enumerate((power_z, delay_z)) if z is not None]
            streams = spawn_entropy(instrument_seeds, 2).reshape(n, 2, -1)
            rows = streams[:, [child for child, _ in drawn]].reshape(n * len(drawn), -1)
            for k, rng in enumerate(seeded_generators(rows)):
                device, stream = divmod(k, len(drawn))
                rng.standard_normal(out=drawn[stream][1][device])
            if delay_z is not None:
                pcms = _apply_instrument_noise(pcms, delay_z, self.delay_analyzer)
            if power_z is not None:
                fingerprints = _apply_instrument_noise(
                    fingerprints, power_z, self.power_meter
                )
        return pcms, fingerprints

    def _population_fingerprints(self, population, trojan, version) -> np.ndarray:
        """Noise-free ``(n, nm)`` block-power fingerprints of a population."""
        key_bits = bytes_to_bits(self.key)
        cipher_bits = self.cipher_bits
        amplitude = population_output_amplitude(
            population.structure_params(f"{version}.uwb_pa")
        )
        frequency = population_center_frequency_ghz(
            population.structure_params(f"{version}.uwb_shaper")
        )
        n = len(population)
        powers = np.empty((n, self.nm), dtype=float)
        for j in range(self.nm):
            emitted = np.flatnonzero(cipher_bits[j] == 1)
            amps = np.broadcast_to(amplitude[:, None], (n, emitted.size))
            freqs = np.broadcast_to(frequency[:, None], (n, emitted.size))
            if trojan is not None:
                amps, freqs = trojan.modulate_population(
                    emitted, key_bits[emitted], amps, freqs
                )
            if self.channel is not None:
                amps = amps * self.channel.path_gain
            powers[:, j] = self.receiver.block_powers(amps, freqs)
        return powers


def _apply_instrument_noise(true_values: np.ndarray, z: np.ndarray,
                            instrument: Instrument) -> np.ndarray:
    """Vectorized :meth:`Instrument.read` over pre-drawn normals.

    ``z`` interleaves (gain z, offset z) per reading, matching the two
    sequential scalar draws ``read`` makes.
    """
    gains = 1.0 + instrument.gain_sigma * z[:, 0::2]
    return true_values * gains + instrument.offset_sigma * z[:, 1::2]

