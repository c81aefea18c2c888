"""Operating-curve analysis: the FP/FN trade-off of a trusted boundary.

The paper evaluates each boundary at its natural operating point (decision
score >= 0).  Sweeping the decision threshold instead traces the full
trade-off between Trojan escapes (FP) and false alarms (FN) and yields the
threshold-free separation quality of the fingerprint itself — an extension
experiment for the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.boundaries import TrustedRegion
from repro.utils.validation import check_2d


@dataclass(frozen=True)
class OperatingPoint:
    """One threshold on a boundary's decision scores."""

    threshold: float
    fp_count: int
    fn_count: int
    n_infested: int
    n_trojan_free: int


@dataclass
class OperatingCurve:
    """The swept trade-off plus summary statistics."""

    points: List[OperatingPoint]
    auc: float
    natural_point: OperatingPoint

    def zero_escape_fn(self) -> int:
        """Smallest FN achievable with zero Trojan escapes."""
        eligible = [p.fn_count for p in self.points if p.fp_count == 0]
        return min(eligible) if eligible else self.points[0].n_trojan_free

    def format(self) -> str:
        lines = [
            f"operating curve: AUC = {self.auc:.4f}",
            f"natural threshold 0: FP {self.natural_point.fp_count}/"
            f"{self.natural_point.n_infested}, FN {self.natural_point.fn_count}/"
            f"{self.natural_point.n_trojan_free}",
            f"best FN at zero escapes: {self.zero_escape_fn()}/"
            f"{self.natural_point.n_trojan_free}",
        ]
        return "\n".join(lines)


def _point(scores, infested, threshold: float) -> OperatingPoint:
    passed = scores >= threshold
    return OperatingPoint(
        threshold=float(threshold),
        fp_count=int(np.sum(passed & infested)),
        fn_count=int(np.sum(~passed & ~infested)),
        n_infested=int(infested.sum()),
        n_trojan_free=int((~infested).sum()),
    )


def operating_curve(region: TrustedRegion, fingerprints, infested) -> OperatingCurve:
    """Sweep the decision threshold of ``region`` over a labelled population.

    The AUC is the probability that a random Trojan-free device scores above
    a random infested one (Mann-Whitney form); 1.0 means the two populations
    are perfectly separated by the boundary's score.
    """
    fingerprints = check_2d(fingerprints, "fingerprints")
    infested = np.asarray(infested, dtype=bool)
    if infested.shape != (fingerprints.shape[0],):
        raise ValueError("infested must label every fingerprint row")
    scores = region.decision_scores(fingerprints)

    thresholds = np.concatenate([[-np.inf], np.unique(scores), [np.inf]])
    points = [_point(scores, infested, t) for t in thresholds]

    clean_scores = scores[~infested]
    trojan_scores = scores[infested]
    if clean_scores.size and trojan_scores.size:
        comparisons = clean_scores[:, None] - trojan_scores[None, :]
        auc = float((comparisons > 0).mean() + 0.5 * (comparisons == 0).mean())
    else:
        auc = float("nan")

    return OperatingCurve(
        points=points,
        auc=auc,
        natural_point=_point(scores, infested, 0.0),
    )
