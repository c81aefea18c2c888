"""Production specification tests — the tests the Trojans must survive.

The paper's premise is that its Trojans "evade all traditional manufacturing
test methods": they do not change functionality, and their parametric
footprint hides inside the margins a production spec must allow for process
variation.  This module makes that claim executable:

* functional test — known-answer AES encryption;
* parametric tests — transmission power and pulse centre frequency against
  spec limits derived from the clean population's own spread.

Tests and the attack demo assert that every Trojan-infested device passes
the full production flow while the side-channel detector still catches it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.crypto.aes import AES128
from repro.crypto.bits import random_block
from repro.rf.receiver import BandPassReceiver
from repro.testbed.chip import WirelessCryptoChip
from repro.utils.rng import SeedLike, as_generator


@dataclass(frozen=True)
class SpecLimits:
    """Parametric limits of the production test.

    Power limits are on the summed block energy of the test pattern set;
    frequency limits on the transmitter centre frequency.
    """

    power_low: float
    power_high: float
    freq_low_ghz: float
    freq_high_ghz: float

    def __post_init__(self):
        if not self.power_low < self.power_high:
            raise ValueError("power_low must be below power_high")
        if not 0 < self.freq_low_ghz < self.freq_high_ghz:
            raise ValueError("frequency limits must be positive and ordered")


@dataclass(frozen=True)
class SpecResult:
    """Outcome of the production flow for one device."""

    functional_pass: bool
    power: float
    power_pass: bool
    frequency_ghz: float
    frequency_pass: bool

    @property
    def passed(self) -> bool:
        """Overall production verdict."""
        return self.functional_pass and self.power_pass and self.frequency_pass


@dataclass
class ProductionTest:
    """A complete production test program.

    Parameters
    ----------
    key:
        The on-chip key the functional test checks against.
    patterns:
        Plaintext test patterns (functional + parametric stimuli).
    limits:
        Parametric spec limits; build them from a clean reference device
        with :meth:`centered_on`.
    receiver:
        Power-measurement front-end of the production tester.
    """

    key: bytes
    patterns: List[bytes]
    limits: SpecLimits
    receiver: BandPassReceiver = field(default_factory=BandPassReceiver)

    @classmethod
    def centered_on(
        cls,
        reference: WirelessCryptoChip,
        margin: float = 0.25,
        freq_margin: float = 0.25,
        n_patterns: int = 4,
        seed: SeedLike = None,
        receiver: Optional[BandPassReceiver] = None,
    ) -> "ProductionTest":
        """Build a test program with limits centred on a reference device.

        ``margin`` is the allowed relative deviation of the summed power;
        it must exceed the process spread (~±14 %, 2 sigma on this platform)
        or the line would reject good parts.
        """
        if not 0 < margin < 1:
            raise ValueError(f"margin must be in (0, 1), got {margin}")
        if not 0 < freq_margin < 1:
            raise ValueError(f"freq_margin must be in (0, 1), got {freq_margin}")
        rng = as_generator(seed)
        patterns = [random_block(rng) for _ in range(n_patterns)]
        receiver = receiver or BandPassReceiver()
        power = cls._summed_power(reference, patterns, receiver)
        freq = reference.transmitter.center_frequency_ghz()
        limits = SpecLimits(
            power_low=power * (1.0 - margin),
            power_high=power * (1.0 + margin),
            freq_low_ghz=freq * (1.0 - freq_margin),
            freq_high_ghz=freq * (1.0 + freq_margin),
        )
        return cls(key=reference.key, patterns=patterns, limits=limits,
                   receiver=receiver)

    @staticmethod
    def _summed_power(chip: WirelessCryptoChip, patterns, receiver) -> float:
        return float(
            sum(receiver.block_power(chip.transmit_plaintext(p)) for p in patterns)
        )

    def run(self, chip: WirelessCryptoChip) -> SpecResult:
        """Run the full production flow on one device."""
        reference_aes = AES128(self.key)
        functional = all(
            chip.encrypt(p) == reference_aes.encrypt_block(p) for p in self.patterns
        )
        power = self._summed_power(chip, self.patterns, self.receiver)
        freq = chip.transmitter.center_frequency_ghz()
        return SpecResult(
            functional_pass=functional,
            power=power,
            power_pass=self.limits.power_low <= power <= self.limits.power_high,
            frequency_ghz=freq,
            frequency_pass=self.limits.freq_low_ghz <= freq <= self.limits.freq_high_ghz,
        )
