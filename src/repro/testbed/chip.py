"""The wireless cryptographic IC: AES core + serializer + UWB transmitter.

One :class:`WirelessCryptoChip` is a *version* of the design instantiated on
a physical die: Trojan-free, or carrying one of the Trojans.  The paper's 40
fabricated chips each host all three versions; in this library the three
versions of one die share the same die-level process parameters (they sit on
the same silicon) while each version's analog structures get their own local
mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.crypto.aes import AES128
from repro.crypto.bits import bytes_to_bits
from repro.rf.pulse import PulseTrain
from repro.rf.uwb import UwbTransmitter
from repro.testbed.serializer import SerializationBuffer
from repro.trojans.base import TrojanModel


@dataclass
class WirelessCryptoChip:
    """One design version placed on one die.

    Parameters
    ----------
    die:
        Any object exposing ``structure_params(name) -> ProcessParameters``
        (a :class:`~repro.silicon.foundry.FabricatedDie` or a simulated die).
    key:
        The on-chip AES-128 key.
    trojan:
        ``None`` for the Trojan-free version, or a
        :class:`~repro.trojans.base.TrojanModel`.
    version:
        Label distinguishing co-located versions on one die; it namespaces
        the analog structures so each version has its own local mismatch.
    """

    die: object
    key: bytes
    trojan: Optional[TrojanModel] = None
    version: str = "TF"

    def __post_init__(self):
        self._aes = AES128(self.key)
        self._serializer = SerializationBuffer()
        self._key_bits = bytes_to_bits(self.key)
        pa_params = self.die.structure_params(f"{self.version}.uwb_pa")
        shaper_params = self.die.structure_params(f"{self.version}.uwb_shaper")
        self._transmitter = UwbTransmitter(pa_params=pa_params, shaper_params=shaper_params)

    @property
    def transmitter(self) -> UwbTransmitter:
        """The chip's UWB front-end (useful for spec checks)."""
        return self._transmitter

    def encrypt(self, plaintext: bytes) -> bytes:
        """AES-encrypt one 16-byte block (identical on all versions)."""
        return self._aes.encrypt_block(plaintext)

    def transmit_plaintext(self, plaintext: bytes) -> PulseTrain:
        """Encrypt ``plaintext`` and transmit the ciphertext block over UWB."""
        ciphertext = self.encrypt(plaintext)
        return self.transmit_ciphertext(ciphertext)

    def transmit_ciphertext(self, ciphertext: bytes) -> PulseTrain:
        """Serialize and transmit an already-encrypted block."""
        bits = self._serializer.serialize(ciphertext)
        return self._transmitter.transmit(
            bits, trojan=self.trojan, key_bits=self._key_bits if self.trojan else None
        )
