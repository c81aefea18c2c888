"""Textual reporting of detection results (paper Table 1 format)."""

from __future__ import annotations

from typing import Mapping

from repro.core.metrics import DetectionMetrics

#: Which dataset trains which boundary, for row labels.
BOUNDARY_TO_DATASET = {"B1": "S1", "B2": "S2", "B3": "S3", "B4": "S4", "B5": "S5"}


def format_table1(results: Mapping[str, DetectionMetrics], title: str = "") -> str:
    """Render FP/FN metrics like the paper's Table 1.

    ``results`` maps boundary names ("B1".."B5") to their metrics.
    """
    if not results:
        raise ValueError("no results to format")
    lines = []
    if title:
        lines.append(title)
    lines.append("Data set used to train the trusted region |   FP   |   FN")
    lines.append("-" * 58)
    for boundary in ("B1", "B2", "B3", "B4", "B5"):
        if boundary not in results:
            continue
        metrics = results[boundary]
        dataset = BOUNDARY_TO_DATASET.get(boundary, "?")
        lines.append(
            f"{dataset:<41s} | {metrics.fp_count:>2d}/{metrics.n_infested:<3d} "
            f"| {metrics.fn_count:>2d}/{metrics.n_trojan_free:<3d}"
        )
    return "\n".join(lines)
