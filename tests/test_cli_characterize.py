"""Tests for the CLI and the characterization (shmoo) module."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.config import SystemConfig
from repro.errors import ReproError
from repro.flow.characterize import (
    ShmooResult,
    characterization_report,
    characterize,
)


class TestCharacterize:
    @pytest.fixture(scope="class")
    def result(self):
        return characterize(SystemConfig(rows=8, cols=8), seed=1)

    def test_all_tiles_pass_nominal(self, result):
        assert result.passing_fraction(300e6) == 1.0

    def test_system_fmax_between_nominal_and_pll_cap(self, result):
        assert 300e6 <= result.system_fmax_hz <= 400e6

    def test_regulated_voltage_in_band(self, result):
        assert (result.regulated_v >= 1.0).all()
        assert (result.regulated_v <= 1.2).all()

    def test_shmoo_monotone(self, result):
        freqs = [250e6, 300e6, 350e6, 400e6, 450e6]
        fractions = [frac for _, frac in result.shmoo_row(freqs)]
        assert fractions == sorted(fractions, reverse=True)

    def test_bins_partition_tiles(self, result):
        counts = result.bin_counts([300e6, 350e6, 400e6])
        assert sum(counts.values()) == 64

    def test_zero_sigma_deterministic(self):
        a = characterize(SystemConfig(rows=4, cols=4), process_sigma=0.0)
        b = characterize(SystemConfig(rows=4, cols=4), process_sigma=0.0, seed=9)
        np.testing.assert_allclose(a.fmax_hz, b.fmax_hz)

    def test_spread_increases_with_sigma(self):
        tight = characterize(SystemConfig(rows=8, cols=8), process_sigma=0.01)
        loose = characterize(SystemConfig(rows=8, cols=8), process_sigma=0.05)
        assert loose.fmax_hz.std() > tight.fmax_hz.std()

    def test_report_mentions_key_numbers(self, result):
        report = characterization_report(result)
        assert "300MHz" in report
        assert "lock-step" in report

    def test_invalid_inputs(self, result):
        with pytest.raises(ReproError):
            characterize(SystemConfig(rows=2, cols=2), process_sigma=-1.0)
        with pytest.raises(ReproError):
            result.passing_fraction(0)


class TestCli:
    def test_parser_lists_all_commands(self):
        parser = build_parser()
        commands = {"table1", "flow", "droop", "fig6", "clock",
                    "loadtime", "yield", "shmoo"}
        # Probe by parsing each command.
        for command in commands:
            args = parser.parse_args([command, "--rows", "4", "--cols", "4"])
            assert args.command == command

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "14336" in out

    def test_loadtime(self, capsys):
        assert main(["loadtime"]) == 0
        out = capsys.readouterr().out
        assert "32x" in out

    def test_yield(self, capsys):
        assert main(["yield", "--rows", "8", "--cols", "8"]) == 0
        out = capsys.readouterr().out
        assert "pillar" in out

    def test_droop_small(self, capsys):
        assert main(["droop", "--rows", "6", "--cols", "6"]) == 0
        out = capsys.readouterr().out
        assert "edge" in out

    def test_fig6_small(self, capsys):
        code = main([
            "fig6", "--rows", "8", "--cols", "8",
            "--trials", "3", "--max-faults", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "single" in out

    def test_clock_with_faults(self, capsys):
        code = main([
            "clock", "--rows", "6", "--cols", "6", "--faults", "3", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "coverage" in out

    def test_flow_small(self, capsys):
        code = main(["flow", "--rows", "4", "--cols", "4", "--trials", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out

    def test_shmoo(self, capsys):
        assert main(["shmoo", "--rows", "4", "--cols", "4"]) == 0
        out = capsys.readouterr().out
        assert "fmax" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestCliBadInput:
    """Library-rejected input exits 2 with one ``repro: error:`` line,
    never a Python traceback."""

    REPO = Path(__file__).resolve().parents[1]

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["fig6", "--trials", "0"], "an experiment needs at least one trial"),
            (["resiliency", "--rows", "4", "--cols", "4", "--trials", "0"],
             "an experiment needs at least one trial"),
            (["flow", "--rows", "4", "--cols", "4", "--trials", "0"],
             "an experiment needs at least one trial"),
            (["verify", "--trials", "0"], "campaign needs at least one trial"),
            (["lot", "--wafers", "0"], "lot needs at least one wafer"),
            (["table1", "--rows", "0"], "tile array must be at least 1x1, got 0x32"),
            (["yield", "--rows", "0"], "tile array must be at least 1x1, got 0x32"),
            (["loadtime", "--rows", "0"], "tile array must be at least 1x1, got 0x32"),
            (["shmoo", "--rows", "0"], "tile array must be at least 1x1, got 0x32"),
            (["droop", "--rows", "-1"], "tile array must be at least 1x1, got -1x32"),
            (["noc", "--rows", "6", "--cols", "6", "--rate", "1.5"],
             "injection rate must be in [0, 1]"),
            (["clock", "--rows", "4", "--cols", "4", "--faults", "100"],
             "cannot fault 100 of 16 tiles"),
            (["remap", "--rows", "4", "--cols", "4", "--faults", "100"],
             "cannot fault 100 of 16 tiles"),
            (["bringup", "--rows", "4", "--cols", "4", "--faults", "100"],
             "cannot fault 100 of 16 tiles"),
            (["emu", "--rows", "4", "--cols", "4", "--faults", "100"],
             "cannot fault 100 of 16 tiles"),
            (["collective", "--rows", "4", "--cols", "4", "--ranks", "0"],
             "a collective needs at least one rank"),
            (["collective", "--rows", "4", "--cols", "4", "--ranks", "1000"],
             "spec asks for 1000 ranks but only 16 tiles are healthy"),
            (["noc", "--rows", "4", "--cols", "4", "--checkpoint-every", "5"],
             "--checkpoint-every requires --checkpoint PATH"),
            (["noc", "--rows", "4", "--cols", "4", "--halt-at", "5"],
             "--halt-at requires --checkpoint PATH"),
            (["emu", "--rows", "4", "--cols", "4", "--faults", "1",
              "--workload", "stencil"],
             "stencil blocks pin to physical tiles: drop --faults"),
            (["collective", "--rows", "5", "--cols", "5", "--pattern",
              "dataflow", "--sweep-faults", "0,2"],
             "--sweep-faults supports the spec patterns only"),
            (["obs", "diff", "a.json"],
             "obs diff takes exactly two paths: A.json B.json"),
            (["noc", "--rows", "6", "--cols", "6", "--faults", "3", "--seed",
              "11", "--rate", "0.2", "--resume",
              str(REPO / "tests" / "data" / "noc_fast_engine_6x6.npz")],
             "cannot resume: checkpoint traffic parameters disagree with the "
             "command line: {'rate': {'checkpoint': 0.1, 'requested': 0.2}}"),
        ],
    )
    def test_each_command_reports_one_line(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"repro: error: {message}\n"
        assert captured.out == ""

    def test_missing_checkpoint_reports_one_line(self, tmp_path, capsys):
        missing = tmp_path / "missing.npz"
        argv = ["noc", "--rows", "6", "--cols", "6", "--resume", str(missing)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"repro: error: checkpoint {missing} does not exist\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["noc", "--rate", "1.5"], "injection rate must be in [0, 1]"),
            (["fig6", "--rows", "0"], "tile array must be at least 1x1"),
        ],
    )
    def test_repro_error_is_one_line(self, argv, message):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            cwd=self.REPO,
            env={"PYTHONPATH": str(self.REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"repro: error: {message}")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    def test_closed_stdout_exits_quietly(self):
        # The reader takes one line and closes the pipe while repro is
        # still writing: the summary of the same record, repeated, is
        # larger than any pipe buffer, so the next write must fail.
        record = str(self.REPO / "benchmarks" / "BENCH_collectives.json")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "obs", "summarize", *[record] * 200],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=self.REPO,
            env={**os.environ, "PYTHONPATH": str(self.REPO / "src")},
        )
        assert proc.stdout.readline().startswith(record.encode())
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
        assert stderr == b""
