"""Codec registrations for the library's model classes.

Imported lazily by :mod:`repro.cache.codec` the first time a non-primitive
value is (de)serialized, so the codec itself never drags in the learn
stack.  Tags are part of the bundle format — renaming one makes existing
bundles fail to decode.
"""

from __future__ import annotations

from repro.cache.codec import register
from repro.core.boundaries import TrustedRegion
from repro.core.pipeline import GoldenChipFreeDetector
from repro.learn.latent import LatentGainMars
from repro.learn.mars import MarsRegression, MultiOutputMars
from repro.learn.ocsvm import OneClassSvm
from repro.stats.preprocessing import Whitener

register("mars", MarsRegression)
# Ablation A5 injects the per-output regression.
register("mars_multi", MultiOutputMars)
register("latent_gain_mars", LatentGainMars)
register("ocsvm", OneClassSvm)
register("whitener", Whitener)
register("trusted_region", TrustedRegion)
# The whole fitted detector is itself codec-encodable: detector bundles
# (repro.serve.bundle) serialize it as one value.
register("detector", GoldenChipFreeDetector)
