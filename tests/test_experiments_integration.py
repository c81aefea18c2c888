"""End-to-end reproduction checks: Table 1 shape, Figure 4 geometry, CLI."""

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.experiments.figure4 import run_figure4
from repro.experiments.platformcfg import PlatformConfig
from repro.experiments.table1 import run_table1


@pytest.fixture(scope="module")
def table1_result(full_experiment_data):
    return run_table1(
        detector_config=DetectorConfig(kde_samples=30_000),
        data=full_experiment_data,
    )


@pytest.mark.slow
class TestTable1:
    def test_matches_paper_shape(self, table1_result):
        assert table1_result.matches_paper_shape(), table1_result.format()

    def test_no_trojan_escapes(self, table1_result):
        assert all(m.fp_count == 0 for m in table1_result.metrics.values())

    def test_simulation_only_boundaries_fail(self, table1_result):
        assert table1_result.metrics["B1"].fn_count >= 36
        assert table1_result.metrics["B2"].fn_count >= 30

    def test_final_boundary_near_golden(self, table1_result):
        assert table1_result.metrics["B5"].fn_count <= 8

    def test_format_renders_rows(self, table1_result):
        text = table1_result.format()
        assert "S1" in text and "S5" in text and "/80" in text

    def test_population_sizes_match_paper(self, table1_result):
        metrics = table1_result.metrics["B5"]
        assert metrics.n_infested == 80
        assert metrics.n_trojan_free == 40


@pytest.mark.slow
class TestFigure4:
    @pytest.fixture(scope="class")
    def figure(self, full_experiment_data):
        return run_figure4(
            detector_config=DetectorConfig(kde_samples=20_000),
            data=full_experiment_data,
        )

    def test_all_panels_present(self, figure):
        assert set(figure.panels) == {"S1", "S2", "S3", "S4", "S5"}

    def test_pc1_dominates(self, figure):
        assert figure.explained_variance_ratio[0] > 0.9

    def test_simulation_sets_sit_far_from_silicon(self, figure):
        assert figure.panels["S1"].centroid_distance_tf > 2.0
        assert figure.panels["S2"].centroid_distance_tf > 2.0

    def test_silicon_anchored_sets_are_closer(self, figure):
        assert figure.panels["S3"].centroid_distance_tf < figure.panels["S1"].centroid_distance_tf

    def test_s5_covers_trojan_free_but_not_trojans(self, figure):
        assert figure.panels["S5"].tf_coverage > 0.8
        assert figure.panels["S5"].ti_coverage < 0.05

    def test_projections_have_three_components(self, figure):
        assert figure.tf_projection.shape == (40, 3)
        assert figure.panels["S1"].projection.shape[1] == 3

    def test_format_is_printable(self, figure):
        text = figure.format()
        assert "S5" in text and "cover" in text
