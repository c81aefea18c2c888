"""RF substrate: UWB pulse transmission, channel, and power measurement.

The analog part of the platform chip is an Ultra-Wide-Band transmitter that
sends each ciphertext bit as a Gaussian monocycle pulse.  The side-channel
fingerprint of the paper is the *measured output power* of entire 128-bit
block transmissions, observed through a band-limited receiver.
"""

from repro.rf.channel import AwgnChannel
from repro.rf.pulse import PulseTrain
from repro.rf.receiver import BandPassReceiver
from repro.rf.uwb import UwbTransmitter

__all__ = [
    "PulseTrain",
    "UwbTransmitter",
    "AwgnChannel",
    "BandPassReceiver",
]
