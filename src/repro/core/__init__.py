"""Core library: the golden chip-free Trojan detection pipeline.

This package implements the paper's contribution proper — the three-stage
flow (pre-manufacturing, silicon measurement, Trojan test) that learns the
trusted side-channel region without golden chips:

* :class:`~repro.core.pipeline.GoldenChipFreeDetector` — the full pipeline,
  producing boundaries B1..B5;
* :mod:`repro.core.datasets` — the S1..S5 dataset builders of Section 3.2;
* :class:`~repro.core.boundaries.TrustedRegion` — a one-class-SVM trusted
  region with whitened-coordinate preprocessing;
* :mod:`repro.core.metrics` — FP/FN detection metrics (paper Eq. 1-2).
"""

from repro.core.boundaries import TrustedRegion
from repro.core.config import DetectorConfig
from repro.core.datasets import DatasetBundle
from repro.core.golden import GoldenReferenceDetector
from repro.core.io import load_experiment_data, save_experiment_data
from repro.core.metrics import DetectionMetrics, evaluate_detection
from repro.core.pipeline import GoldenChipFreeDetector
from repro.core.report import format_table1

__all__ = [
    "DetectorConfig",
    "TrustedRegion",
    "DatasetBundle",
    "GoldenReferenceDetector",
    "save_experiment_data",
    "load_experiment_data",
    "GoldenChipFreeDetector",
    "DetectionMetrics",
    "evaluate_detection",
    "format_table1",
]
