"""Unified command-line interface."""

import pytest

from repro.cli import build_parser, main

FAST = ["--chips", "10", "--kde-samples", "1500"]


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_table1_command(capsys):
    assert main(["table1", *FAST]) == 0
    out = capsys.readouterr().out
    assert "matches paper shape" in out
    assert "S5" in out


def test_figure4_command(capsys):
    assert main(["figure4", *FAST]) == 0
    out = capsys.readouterr().out
    assert "cover" in out


def test_audit_command(capsys):
    assert main(["audit", *FAST, "--boundary", "B5"]) == 0
    out = capsys.readouterr().out
    assert "flagged" in out


def test_audit_rejects_unknown_boundary():
    with pytest.raises(SystemExit):
        main(["audit", "--boundary", "B9"])


def test_generate_then_reuse(tmp_path, capsys):
    archive = tmp_path / "run.npz"
    assert main(["generate", str(archive), "--chips", "10"]) == 0
    assert archive.exists()

    assert main(["table1", "--data", str(archive), "--kde-samples", "1500"]) == 0
    out = capsys.readouterr().out
    assert "/20" in out  # 2 * 10 infested devices


def test_ablation_command(capsys):
    assert main(["ablation", "regression", *FAST]) == 0
    out = capsys.readouterr().out
    assert "regression" in out


def test_ablation_rejects_unknown_study():
    with pytest.raises(SystemExit):
        main(["ablation", "warp-drive"])


def test_score_url_prints_the_bundle_counts(tmp_path, capsys):
    """``score --url`` against a served display-lot bundle flags what
    ``score --bundle`` flags."""
    from repro.serve.server import DetectorServer

    data, bundle = str(tmp_path / "run.npz"), str(tmp_path / "detector.npz")
    assert main(["generate", data]) == 0
    assert main(["export-bundle", bundle, "--data", data]) == 0
    capsys.readouterr()
    assert main(["score", "--data", data, "--bundle", bundle]) == 0
    local = capsys.readouterr().out
    with DetectorServer(bundle, port=0) as server:
        assert main(["score", "--data", data, "--url", server.url]) == 0
    remote = capsys.readouterr().out

    def flagged(out):
        return [line.strip() for line in out.splitlines() if "flagged" in line]

    expected = [f"{name}: flagged {count} of 120" for name, count in
                zip(("B1", "B2", "B3", "B4", "B5"), (120, 117, 120, 120, 84))]
    assert flagged(remote) == flagged(local) == expected
