"""Detection metrics: false positives and false negatives (paper Eq. 1-2).

The paper counts, over the N devices under Trojan test:

* **FP** — Trojan-infested devices classified as Trojan-free;
* **FN** — Trojan-free devices classified as Trojan-infested.

(Note the convention: "positive" is *passing* the trust test, so an escaped
Trojan is a false positive.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DetectionMetrics:
    """FP/FN counts for one boundary over one DUTT population."""

    fp_count: int
    fn_count: int
    n_infested: int
    n_trojan_free: int

    def as_row(self) -> str:
        """Format like the paper's Table 1 (``FP a/b   FN c/d``)."""
        return (
            f"{self.fp_count}/{self.n_infested}"
            f"  {self.fn_count}/{self.n_trojan_free}"
        )


def evaluate_detection(predicted_trojan_free, infested) -> DetectionMetrics:
    """Compute FP/FN from per-device predictions and ground truth.

    Parameters
    ----------
    predicted_trojan_free:
        Boolean array, True where a device was classified Trojan-free
        (i.e. its fingerprint fell inside the trusted region).
    infested:
        Boolean array of ground truth, True for Trojan-infested devices.
    """
    predicted = np.asarray(predicted_trojan_free, dtype=bool)
    truth = np.asarray(infested, dtype=bool)
    if predicted.shape != truth.shape:
        raise ValueError(
            f"prediction shape {predicted.shape} != truth shape {truth.shape}"
        )
    if predicted.ndim != 1:
        raise ValueError("metrics expect 1-D per-device arrays")
    fp = int(np.sum(predicted & truth))
    fn = int(np.sum(~predicted & ~truth))
    return DetectionMetrics(
        fp_count=fp,
        fn_count=fn,
        n_infested=int(truth.sum()),
        n_trojan_free=int((~truth).sum()),
    )
