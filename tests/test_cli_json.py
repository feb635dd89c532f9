"""Tests for the CLI's structured-result API: --json, --workers, --no-cache.

Every ``--json`` document is a versioned ``repro/v1`` envelope:
``command``/``ok`` at the top level, the command payload under
``result``, and a ``manifest`` field (populated when telemetry ran).
"""

import json

import pytest

from repro.cli import _RENDERERS, _RUNNERS, build_parser, main
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
        assert command not in _RUNNERS

    def test_every_command_has_runner_and_renderer(self):
        assert set(_RUNNERS) == set(_RENDERERS) == set(COMMANDS)

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
        parser = build_parser()
        args = parser.parse_args(COMMANDS[command])
        result = _RUNNERS[command](args)
        expected = _RENDERERS[command](result)
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

    def test_verify_collective_suite_listed(self):
        from repro.verify import SUITES

        assert "collective" in SUITES


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
