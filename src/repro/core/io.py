"""Persistence: save and load experiment data and detector configurations.

Production flows separate data collection (bench time) from analysis; these
helpers serialize the measurement campaign results to ``.npz`` and the
detector configuration to JSON so an audit can be re-run or archived.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.core.config import DetectorConfig, drop_retired_keys
from repro.experiments.platformcfg import ExperimentData

PathLike = Union[str, Path]


def save_experiment_data(data: ExperimentData, path: PathLike) -> Path:
    """Write all measurements of one experiment to a compressed ``.npz``."""
    path = Path(path)
    np.savez_compressed(
        path,
        sim_pcms=data.sim_pcms,
        sim_fingerprints=data.sim_fingerprints,
        dutt_pcms=data.dutt_pcms,
        dutt_fingerprints=data.dutt_fingerprints,
        infested=data.infested,
        trojan_names=np.asarray(data.trojan_names, dtype=np.str_),
    )
    # numpy appends .npz when missing; report the real file.
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_experiment_data(path: PathLike) -> ExperimentData:
    """Load measurements written by :func:`save_experiment_data`.

    The measurement campaign object (frozen key, plaintexts, instruments) is
    not serialized — only its results; the returned object has
    ``campaign=None``.
    """
    with np.load(Path(path), allow_pickle=False) as archive:
        required = {
            "sim_pcms", "sim_fingerprints", "dutt_pcms",
            "dutt_fingerprints", "infested", "trojan_names",
        }
        missing = required - set(archive.files)
        if missing:
            raise ValueError(f"archive is missing arrays: {sorted(missing)}")
        return ExperimentData(
            sim_pcms=archive["sim_pcms"],
            sim_fingerprints=archive["sim_fingerprints"],
            dutt_pcms=archive["dutt_pcms"],
            dutt_fingerprints=archive["dutt_fingerprints"],
            infested=archive["infested"].astype(bool),
            trojan_names=[str(name) for name in archive["trojan_names"]],
            campaign=None,
        )


def save_detector_config(config: DetectorConfig, path: PathLike) -> Path:
    """Write a detector configuration as JSON."""
    path = Path(path)
    path.write_text(json.dumps(dataclasses.asdict(config), indent=2, sort_keys=True))
    return path


def load_detector_config(path: PathLike) -> DetectorConfig:
    """Load a configuration written by :func:`save_detector_config`.

    Unknown keys are rejected — a config written by a newer library version
    should fail loudly rather than be silently misinterpreted — except the
    retired fields older versions wrote (:data:`~repro.core.config.RETIRED_KEYS`).
    """
    raw = drop_retired_keys(json.loads(Path(path).read_text()))
    known = {field.name for field in dataclasses.fields(DetectorConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
    return DetectorConfig(**raw)
