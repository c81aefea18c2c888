"""Persistence: save and load experiment data.

Production flows separate data collection (bench time) from analysis; these
helpers serialize the measurement campaign results to ``.npz`` so an audit
can be re-run or archived.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

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
