"""Detection metrics (Eq. 1-2) and Table-1 reporting."""

import numpy as np
import pytest

from repro.core.metrics import DetectionMetrics, evaluate_detection
from repro.core.report import BOUNDARY_TO_DATASET, format_table1


class TestMetrics:
    def test_counts(self):
        #                 TF    TF     TI     TI
        predicted = [True, False, True, False]
        infested = [False, False, True, True]
        metrics = evaluate_detection(predicted, infested)
        assert metrics.fp_count == 1   # infested passed
        assert metrics.fn_count == 1   # clean flagged
        assert metrics.n_infested == 2
        assert metrics.n_trojan_free == 2

    def test_perfect_detection(self):
        predicted = np.array([True] * 5 + [False] * 10)
        infested = np.array([False] * 5 + [True] * 10)
        metrics = evaluate_detection(predicted, infested)
        assert metrics.fp_count == 0 and metrics.fn_count == 0

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            evaluate_detection([True, False], [True])
        with pytest.raises(ValueError, match="1-D"):
            evaluate_detection(np.ones((2, 2), dtype=bool), np.ones((2, 2), dtype=bool))

    def test_as_row_format(self):
        metrics = DetectionMetrics(fp_count=0, fn_count=3, n_infested=80, n_trojan_free=40)
        assert metrics.as_row() == "0/80  3/40"


class TestReport:
    def _metrics(self):
        return {
            name: DetectionMetrics(fp_count=0, fn_count=i, n_infested=80, n_trojan_free=40)
            for i, name in enumerate(("B1", "B2", "B3", "B4", "B5"))
        }

    def test_format_contains_all_rows(self):
        text = format_table1(self._metrics())
        for dataset in ("S1", "S2", "S3", "S4", "S5"):
            assert dataset in text
        assert "0/80" in text and "4/40" in text

    def test_format_with_partial_results(self):
        metrics = {"B1": DetectionMetrics(0, 40, 80, 40)}
        text = format_table1(metrics)
        assert "S1" in text and "S5" not in text

    def test_format_empty_raises(self):
        with pytest.raises(ValueError):
            format_table1({})

    def test_title_included(self):
        assert format_table1(self._metrics(), title="Hello").startswith("Hello")

    def test_boundary_dataset_mapping(self):
        assert BOUNDARY_TO_DATASET["B5"] == "S5"
