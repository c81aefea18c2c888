"""Codec registrations for the library's cacheable model classes.

Imported lazily by :mod:`repro.cache.codec` the first time a non-primitive
value is (de)serialized, so the cache package itself never drags in the
learn stack.  Tags are part of the on-disk entry format — renaming one
orphans existing entries (they decode as corrupt and get recomputed).
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
# Ablation A5 injects the per-output regression; its fits reach the cache.
register("mars_multi", MultiOutputMars)
register("latent_gain_mars", LatentGainMars)
register("ocsvm", OneClassSvm)
register("whitener", Whitener)
register("trusted_region", TrustedRegion)
# The whole fitted detector is itself codec-encodable: detector bundles
# (repro.serve.bundle) serialize it as one value through the same machinery
# the stage cache uses for its parts.
register("detector", GoldenChipFreeDetector)
