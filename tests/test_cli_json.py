"""Tests for the CLI's structured-result API: --json, --workers, --no-cache.

Every ``--json`` document is a versioned ``repro/v1`` envelope:
``command``/``ok`` at the top level, the command payload under
``result``, and a ``manifest`` field (populated when telemetry ran).
"""

import inspect
import json

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.config import SystemConfig
from repro.errors import UsageError
from repro.obs import ENVELOPE_SCHEMA, validate_envelope_document

# Smallest cheap invocation of every command.
COMMANDS = {
    "table1": ["table1", "--rows", "4", "--cols", "4"],
    "flow": ["flow", "--rows", "4", "--cols", "4", "--trials", "2"],
    "droop": ["droop", "--rows", "4", "--cols", "4"],
    "fig6": ["fig6", "--rows", "6", "--cols", "6", "--trials", "2",
             "--max-faults", "2", "--no-cache"],
    "clock": ["clock", "--rows", "4", "--cols", "4", "--faults", "2", "--seed", "1"],
    "resiliency": ["resiliency", "--rows", "4", "--cols", "4", "--trials", "2",
                   "--max-faults", "2", "--no-cache"],
    "loadtime": ["loadtime", "--rows", "4", "--cols", "4"],
    "yield": ["yield", "--rows", "4", "--cols", "4"],
    "shmoo": ["shmoo", "--rows", "4", "--cols", "4", "--no-cache"],
    "validate": ["validate", "--rows", "32", "--cols", "32"],
    "report": ["report", "--rows", "4", "--cols", "4", "--trials", "2"],
    "bringup": ["bringup", "--rows", "4", "--cols", "4", "--faults", "1",
                "--seed", "1"],
    "remap": ["remap", "--rows", "4", "--cols", "4", "--faults", "2", "--seed", "1"],
    "lot": ["lot", "--rows", "4", "--cols", "4", "--wafers", "4", "--no-cache"],
    "noc": ["noc", "--rows", "4", "--cols", "4", "--cycles", "20"],
    "emu": ["emu", "--rows", "4", "--cols", "4", "--workload", "wave",
            "--engine", "vector", "--faults", "1", "--seed", "1"],
    "collective": ["collective", "--rows", "4", "--cols", "4", "--ranks", "4",
                   "--pattern", "ring-all-reduce", "--seed", "1"],
    "verify": ["verify", "--suite", "dft", "--trials", "2"],
    # A missing file is still a structured (ok=False) result.
    "obs": ["obs", "validate", "does-not-exist.json"],
}


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep CLI cache writes out of the working directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def _result(argv: list[str]) -> dict:
    """The structured result of a command line, without printing it."""
    return cli._run(build_parser().parse_args(argv))


class TestJsonOutput:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_json_is_valid_envelope(self, command, capsys):
        main(COMMANDS[command] + ["--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == ENVELOPE_SCHEMA
        assert payload["command"] == command
        assert isinstance(payload["ok"], bool)
        assert isinstance(payload["result"], dict)
        assert validate_envelope_document(payload) == []

    def test_global_json_flag_before_subcommand(self, capsys):
        assert main(["--json", "loadtime"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "loadtime"

    def test_json_matches_text_exit_code(self, capsys):
        text_code = main(COMMANDS["validate"])
        capsys.readouterr()
        json_code = main(COMMANDS["validate"] + ["--json"])
        payload = json.loads(capsys.readouterr().out)
        assert text_code == json_code == (0 if payload["ok"] else 1)

    @pytest.mark.parametrize("command", ["serve", "submit", "top"])
    def test_daemon_commands_are_gone(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert command not in cli.COMMANDS

    def test_every_command_has_runner_and_renderer(self):
        assert set(cli.COMMANDS) == set(COMMANDS)
        for name, row in cli.COMMANDS.items():
            assert row.name == name
            assert callable(row.run) and callable(row.render)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_row_flags_reach_its_core(self, command, capsys):
        """Every flag a row declares is a keyword of its ``run_*`` (so none
        is silently dropped), and its help line is in ``repro --help``."""
        row = cli.COMMANDS[command]
        params = inspect.signature(row.run).parameters
        [subparsers] = [
            action for action in build_parser()._actions
            if action.dest == "command"
        ]
        dests = {
            action.dest for action in subparsers.choices[command]._actions
        } - {"help", "json", "trace", "metrics"}
        if "config" in params:
            assert {"rows", "cols"} <= dests
            dests -= {"rows", "cols"}
        assert dests <= set(params)
        with pytest.raises(SystemExit):
            main(["--help"])
        listing = " ".join(capsys.readouterr().out.split())
        assert row.help and " ".join(row.help.split()) in listing

    def test_manifest_populated_with_metrics_flag(self, tmp_path, capsys):
        sink = tmp_path / "metrics.json"
        main(COMMANDS["fig6"] + ["--json", "--metrics", str(sink)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["manifest"] is not None
        assert payload["manifest"]["experiment"].startswith("noc.")
        assert validate_envelope_document(payload) == []

    def test_envelope_validates_via_obs_command(self, tmp_path, capsys):
        doc = tmp_path / "envelope.json"
        main(COMMANDS["loadtime"] + ["--json"])
        doc.write_text(capsys.readouterr().out)
        assert main(["obs", "validate", str(doc)]) == 0
        out = capsys.readouterr().out
        assert "valid envelope file" in out


class TestTextRendering:
    """Default text output is the renderer applied to the structured dict."""

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_text_is_rendered_dict(self, command, capsys):
        result = _result(COMMANDS[command])
        expected = cli.COMMANDS[command].render(result)
        assert isinstance(result, dict)
        assert expected    # every command prints something

    def test_fig6_text_format(self, capsys):
        main(COMMANDS["fig6"])
        out = capsys.readouterr().out
        assert out.splitlines()[0] == f"{'faults':>7} {'single %':>9} {'dual %':>8}"

    def test_lot_text_format(self, capsys):
        main(COMMANDS["lot"])
        out = capsys.readouterr().out
        assert "pillar(s)/pad:" in out and "sellable" in out

    def test_resiliency_text_has_header(self, capsys):
        main(COMMANDS["resiliency"])
        out = capsys.readouterr().out
        assert "coverage %" in out.splitlines()[0]


class TestLibraryCallerValues:
    """The ``run_*`` cores name a bad value that argparse would have
    refused at the CLI."""

    @pytest.mark.parametrize(
        "run,field,choices",
        [
            (cli.run_emu, "workload", "wave, bfs, pagerank, stencil"),
            (cli.run_collective, "backend", "noc, emu"),
            (cli.run_noc, "pattern", "uniform, transpose"),
        ],
    )
    def test_bad_value_names_field_and_choices(self, run, field, choices):
        with pytest.raises(UsageError) as raised:
            run(SystemConfig(rows=4, cols=4), **{field: "bogus"})
        message = str(raised.value)
        assert message.startswith(f"{field} must be one of {choices}")
        assert message.endswith("got 'bogus'")


class TestEmuCommand:
    @pytest.mark.parametrize("workload", ["wave", "bfs", "pagerank"])
    def test_engines_agree_apart_from_echo(self, workload, capsys):
        results = {}
        for engine in ("reference", "fast", "vector"):
            cmd = ["emu", "--rows", "6", "--cols", "6", "--faults", "2",
                   "--seed", "1", "--workload", workload, "--engine", engine,
                   "--json"]
            assert main(cmd) == 0
            result = json.loads(capsys.readouterr().out)["result"]
            assert result.pop("engine") == engine
            results[engine] = result
        assert results["reference"]["messages_sent"] > 0
        assert results["reference"] == results["fast"] == results["vector"]

    def test_stencil_engines_agree_on_a_clean_array(self, capsys):
        results = {}
        for engine in ("reference", "vector"):
            cmd = ["emu", "--rows", "4", "--cols", "4", "--seed", "1",
                   "--workload", "stencil", "--engine", engine, "--json"]
            assert main(cmd) == 0
            result = json.loads(capsys.readouterr().out)["result"]
            assert result.pop("engine") == engine
            results[engine] = result
        assert results["reference"]["iterations"] == 10
        assert results["reference"]["messages_sent"] > 0
        assert results["reference"] == results["vector"]

    def test_stencil_rejects_faults(self):
        cmd = ["emu", "--rows", "4", "--cols", "4", "--faults", "1",
               "--workload", "stencil"]
        with pytest.raises(UsageError, match="drop --faults"):
            _result(cmd)


class TestNocCommand:
    @pytest.mark.parametrize("pattern", ["uniform", "transpose", "hotspot"])
    def test_engines_agree_apart_from_echo(self, pattern, capsys):
        """``fast`` (the reference alias) and ``vector`` print the same
        faulty-array result as ``reference``, engine echo aside."""
        results = {}
        for engine in ("reference", "fast", "vector"):
            cmd = ["noc", "--rows", "6", "--cols", "6", "--cycles", "40",
                   "--rate", "0.1", "--faults", "3", "--seed", "2",
                   "--pattern", pattern, "--engine", engine, "--json"]
            assert main(cmd) == 0
            result = json.loads(capsys.readouterr().out)["result"]
            assert result.pop("engine") == engine
            results[engine] = result
        assert results["reference"]["delivered"] > 0
        assert results["reference"] == results["fast"] == results["vector"]

    @pytest.mark.parametrize("flag", ["--checkpoint-every", "--halt-at"])
    def test_checkpoint_flags_need_a_path(self, flag):
        cmd = COMMANDS["noc"] + [flag, "5"]
        with pytest.raises(UsageError, match="requires --checkpoint PATH"):
            _result(cmd)

    def test_invariant_checkers_leave_the_result_alone(self, capsys):
        cmd = ["noc", "--rows", "6", "--cols", "6", "--cycles", "40",
               "--rate", "0.1", "--faults", "3", "--seed", "2", "--json"]
        assert main(cmd) == 0
        plain = json.loads(capsys.readouterr().out)["result"]
        assert main(cmd + ["--check"]) == 0
        checked = json.loads(capsys.readouterr().out)["result"]
        assert plain.pop("checked") is False
        assert checked.pop("checked") is True
        assert checked == plain

    def test_text_names_checkpoint_and_resume(self, tmp_path, capsys):
        ckpt = str(tmp_path / "run.npz")
        cmd = COMMANDS["noc"] + ["--checkpoint", ckpt]
        assert main(cmd + ["--checkpoint-every", "10"]) == 0
        written = capsys.readouterr().out
        assert f"checkpoint: {ckpt} (2 snapshot(s) written)" in written
        assert main(COMMANDS["noc"] + ["--resume", ckpt]) == 0
        assert f"resumed from {ckpt} at cycle" in capsys.readouterr().out


class TestCollectiveCommand:
    """Smoke for the collective paths: envelope validity + engine echo."""

    @pytest.mark.parametrize("engine", ["reference", "fast", "vector"])
    def test_noc_backend_echoes_engine(self, engine, capsys):
        assert main(COMMANDS["collective"] + ["--engine", engine, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert validate_envelope_document(payload) == []
        assert payload["result"]["engine"] == engine
        assert payload["result"]["oracle_checks"] > 0

    def test_emu_backend_echoes_resolved_engine(self, capsys):
        cmd = COMMANDS["collective"] + ["--backend", "emu",
                                        "--engine", "vector", "--json"]
        assert main(cmd) == 0
        payload = json.loads(capsys.readouterr().out)
        assert validate_envelope_document(payload) == []
        assert payload["result"]["engine"] == "vector"
        assert payload["result"]["supersteps"] > 0

    def test_dataflow_pattern(self, capsys):
        cmd = ["collective", "--rows", "5", "--cols", "5", "--pattern",
               "dataflow", "--json"]
        assert main(cmd) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["pattern"] == "dataflow"
        assert payload["result"]["oracle_checks"] > 0

    def test_sweep_mode(self, capsys):
        cmd = ["collective", "--rows", "5", "--cols", "5", "--ranks", "6",
               "--sweep-faults", "0,2", "--trials", "2", "--no-cache",
               "--engine", "vector", "--json"]
        assert main(cmd) == 0
        payload = json.loads(capsys.readouterr().out)
        points = payload["result"]["points"]
        assert [p["faults"] for p in points] == [0, 2]
        assert payload["result"]["engine"] == "vector"

    def test_sweep_rejects_dataflow(self):
        cmd = ["collective", "--rows", "5", "--cols", "5", "--pattern",
               "dataflow", "--sweep-faults", "0,2"]
        with pytest.raises(UsageError, match="spec patterns only"):
            _result(cmd)

    def test_sweep_text_lists_every_fault_count(self, capsys):
        cmd = ["collective", "--rows", "5", "--cols", "5", "--ranks", "6",
               "--sweep-faults", "0,2", "--trials", "2", "--no-cache"]
        assert main(cmd) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split() == ["faults", "trials_ok", "words/cycle",
                                    "mean", "cycles"]
        assert [line.split()[:2] for line in lines[2:]] == [["0", "2"], ["2", "2"]]

    def test_verify_collective_suite_listed(self):
        from repro.verify import SUITES

        assert "collective" in SUITES


class TestObsCommand:
    def test_diff_of_unreadable_file_is_a_structured_error(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        other = tmp_path / "other.json"
        other.write_text("{}")
        cmd = ["obs", "diff", missing, str(other)]
        assert main(cmd + ["--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert validate_envelope_document(payload) == []
        assert payload["ok"] is False
        assert "cannot load JSON document" in payload["result"]["error"]
        assert main(cmd) == 1
        assert capsys.readouterr().out.startswith("obs diff: ERROR ")


class TestEngineFlags:
    def test_workers_do_not_change_cli_statistics(self, capsys):
        base = ["fig6", "--rows", "6", "--cols", "6", "--trials", "3",
                "--max-faults", "3", "--seed", "5", "--no-cache", "--json"]
        main(base + ["--workers", "1"])
        one = json.loads(capsys.readouterr().out)
        main(base + ["--workers", "4"])
        four = json.loads(capsys.readouterr().out)
        assert one["result"]["stats"] == four["result"]["stats"]

    def test_cache_populated_unless_disabled(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cli-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        cmd = ["fig6", "--rows", "4", "--cols", "4", "--trials", "2",
               "--max-faults", "1"]
        main(cmd + ["--no-cache"])
        assert not cache_dir.exists()
        main(cmd)
        assert any(cache_dir.glob("*/*.pkl"))

    def test_cached_rerun_matches(self, capsys):
        cmd = ["lot", "--rows", "4", "--cols", "4", "--wafers", "4", "--json"]
        main(cmd)
        first = json.loads(capsys.readouterr().out)
        main(cmd)
        second = json.loads(capsys.readouterr().out)
        assert first["result"]["variants"] == second["result"]["variants"]
