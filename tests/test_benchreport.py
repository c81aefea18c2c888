"""Benchmark-regression harness: timing plumbing and the compare gate.

These tests cover the cheap pure logic only; the actual component workloads
(``build_cases``) are exercised by running ``benchmarks/bench_report.py``
itself (see the Makefile's ``bench`` target).
"""

import json

import pytest

from repro.benchreport import SCHEMA_VERSION, compare_reports, main, time_case


def _report(**results):
    return {"schema": SCHEMA_VERSION, "units": "seconds", "results": results}


class TestTimeCase:
    def test_returns_positive_seconds_and_runs_warmup(self):
        calls = []
        elapsed = time_case(lambda: calls.append(1), repeats=3, warmup=2)
        assert elapsed > 0.0
        assert len(calls) == 5  # 2 warmup + 3 timed


class TestCompareReports:
    def test_no_regression_within_threshold(self):
        current = _report(kde_density=0.11, table1=0.30)
        baseline = _report(kde_density=0.10, table1=0.30)
        assert compare_reports(current, baseline, threshold=0.20) == []

    def test_flags_component_over_threshold(self):
        current = _report(kde_density=0.13, table1=0.30)
        baseline = _report(kde_density=0.10, table1=0.30)
        failures = compare_reports(current, baseline, threshold=0.20)
        assert len(failures) == 1
        assert "kde_density" in failures[0]

    def test_speedups_and_new_components_pass(self):
        current = _report(kde_density=0.01, brand_new=9.9)
        baseline = _report(kde_density=0.10, retired=0.1)
        assert compare_reports(current, baseline) == []

    def test_disjoint_reports_are_an_error(self):
        failures = compare_reports(_report(a=1.0), _report(b=1.0))
        assert failures == ["no shared components between report and baseline"]

    def test_zero_baseline_entries_are_skipped(self):
        assert compare_reports(_report(a=5.0), _report(a=0.0)) == []


class TestCompareGateCli:
    """End-to-end gate semantics with a stubbed timing run."""

    @pytest.fixture()
    def stub_report(self, monkeypatch):
        report = _report(kde_density=0.10)
        monkeypatch.setattr(
            "repro.benchreport.run_report", lambda verbose=True: report
        )
        return report

    def test_exit_zero_without_baseline(self, stub_report, tmp_path):
        out = tmp_path / "report.json"
        assert main(["--output", str(out)]) == 0
        assert json.loads(out.read_text())["results"] == {"kde_density": 0.10}

    def test_exit_one_on_regression(self, stub_report, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_report(kde_density=0.05)))
        assert main(["--compare", str(baseline)]) == 1
        # A looser threshold lets the same report through.
        assert main(["--compare", str(baseline), "--threshold", "2.0"]) == 0
