"""Tests for the canonical program library and the design-report exporter."""

import pytest

from repro.arch.core import Core
from repro.arch.programs import (
    checksum,
    memory_walk,
    spin_counter,
    vector_add,
)
from repro.arch.system import WaferscaleSystem
from repro.cli import main
from repro.config import SystemConfig
from repro.errors import EmulatorError
from repro.flow.export import design_report_markdown


class _FlatPort:
    """Simple flat memory for core-only program tests."""

    def __init__(self):
        self.mem = {}

    def read(self, core_index, address):
        return (self.mem.get(address, 0), 1)

    def write(self, core_index, address, value):
        self.mem[address] = value
        return 1


def run_on_core(built):
    port = _FlatPort()
    core = Core(0, port)
    core.load_program(built.program)
    core.run(max_cycles=2_000_000)
    return core, port


class TestPrograms:
    def test_memory_walk_clean(self):
        built = memory_walk(0x100, words=16)
        _, port = run_on_core(built)
        assert port.mem[built.result_address] == 0      # no mismatches
        assert port.mem[0x100] == 0xA5A5A5A5

    def test_memory_walk_detects_corruption(self):
        built = memory_walk(0x100, words=8)

        class CorruptPort(_FlatPort):
            def read(self, core_index, address):
                value, lat = super().read(core_index, address)
                if address == 0x104:        # one bad word
                    return (value ^ 1, lat)
                return (value, lat)

        port = CorruptPort()
        core = Core(0, port)
        core.load_program(built.program)
        core.run(max_cycles=2_000_000)
        assert port.mem[built.result_address] == 1

    def test_checksum(self):
        built = checksum(0x200, words=4, result_address=0x300)
        port = _FlatPort()
        for i, value in enumerate((10, 20, 30, 40)):
            port.mem[0x200 + 4 * i] = value
        core = Core(0, port)
        core.load_program(built.program)
        core.run()
        assert port.mem[0x300] == 100

    def test_vector_add(self):
        built = vector_add(0x0, 0x100, 0x200, words=5)
        port = _FlatPort()
        for i in range(5):
            port.mem[0x0 + 4 * i] = i + 1
            port.mem[0x100 + 4 * i] = 10 * (i + 1)
        core = Core(0, port)
        core.load_program(built.program)
        core.run()
        for i in range(5):
            assert port.mem[0x200 + 4 * i] == 11 * (i + 1)

    def test_spin_counter(self):
        built = spin_counter(iterations=100, result_address=0x40)
        core, port = run_on_core(built)
        assert port.mem[0x40] == 100
        # ~2 instructions per loop iteration plus setup.
        assert 200 <= core.instructions_retired <= 260

    def test_vector_add_on_system_shared_memory(self, tiny_cfg):
        """The full-stack version: ranges live in another tile's banks."""
        system = WaferscaleSystem(tiny_cfg)
        mm = system.memory_map
        a = mm.shared_address((2, 2), 0, 0)
        b = mm.shared_address((2, 2), 1, 0)
        c = mm.shared_address((3, 3), 0, 0)
        for i in range(4):
            system.write_shared((2, 2), 0, 4 * i, i + 1)
            system.write_shared((2, 2), 1, 4 * i, 100)
        built = vector_add(a, b, c, words=4)
        tile = system.tile((0, 0))
        tile.load_program(0, built.program)
        tile.cores[0].run(max_cycles=100_000)
        for i in range(4):
            assert system.read_shared((3, 3), 0, 4 * i) == 101 + i

    def test_invalid_sizes(self):
        with pytest.raises(EmulatorError):
            memory_walk(0, words=0)
        with pytest.raises(EmulatorError):
            checksum(0, 0, 0x100)
        with pytest.raises(EmulatorError):
            vector_add(0, 0, 0, 0)
        with pytest.raises(EmulatorError):
            spin_counter(0, 0)


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
