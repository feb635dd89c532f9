"""Tests for the design-report exporter and the report, bringup, remap
and lot CLI commands."""

from repro.cli import main
from repro.config import SystemConfig
from repro.flow.export import design_report_markdown


class TestDesignReport:
    def test_markdown_structure(self):
        text = design_report_markdown(
            SystemConfig(rows=4, cols=4), connectivity_trials=2
        )
        assert "# Waferscale design review" in text
        assert "ALL STAGES PASS" in text
        for stage in ("geometry", "power", "clock", "io", "network",
                      "dft", "substrate"):
            assert f"### {stage}" in text
        assert "| # Compute Chiplets | 16 |" in text

    def test_characterization_section(self):
        text = design_report_markdown(
            SystemConfig(rows=4, cols=4),
            connectivity_trials=2,
            include_characterization=True,
        )
        assert "Prototype characterization" in text
        assert "lock-step" in text

class TestNewCliCommands:
    def test_report_to_file(self, tmp_path, capsys):
        path = str(tmp_path / "out.md")
        code = main([
            "report", "--rows", "4", "--cols", "4", "--trials", "2",
            "--output", path,
        ])
        assert code == 0
        with open(path, encoding="utf-8") as handle:
            assert "design review" in handle.read()

    def test_bringup(self, capsys):
        code = main([
            "bringup", "--rows", "5", "--cols", "5", "--faults", "2", "--seed", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "usable tiles" in out

    def test_remap(self, capsys):
        code = main([
            "remap", "--rows", "6", "--cols", "6", "--faults", "3", "--seed", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "best logical grid" in out

    def test_lot(self, capsys):
        code = main(["lot", "--rows", "8", "--cols", "8", "--wafers", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pillar" in out
