"""Tests for repro.arch (memory map, memory banks, system)."""

import pytest

from repro.arch.emulator import Emulator
from repro.arch.membank import MemoryBank
from repro.arch.memorymap import (
    CORE_PRIVATE_BASE,
    SHARED_BASE,
    TILE_PRIVATE_BASE,
    MemoryMap,
)
from repro.arch.system import WaferscaleSystem
from repro.config import SystemConfig
from repro.errors import EmulatorError, MemoryMapError, NetworkError
from repro.flow.validate import validate_design
from repro.noc.faults import FaultMap


class TestMemoryMap:
    def test_shared_region_size(self, paper_cfg):
        mm = MemoryMap(paper_cfg)
        assert mm.shared_size == 512 * 1024 * 1024

    def test_regions_disjoint(self, small_cfg):
        mm = MemoryMap(small_cfg)
        assert SHARED_BASE + mm.shared_size <= TILE_PRIVATE_BASE
        assert TILE_PRIVATE_BASE + mm.tile_private_size <= CORE_PRIVATE_BASE

    def test_oversize_array_overflows_window(self):
        # 64x64 tiles x 512KB of shared banks is 2GB: past the 512MB window.
        cfg = SystemConfig(rows=64, cols=64)
        with pytest.raises(MemoryMapError, match="shared region overflows"):
            MemoryMap(cfg)
        [failure] = [
            r for r in validate_design(cfg).failures()
            if r.name == "shared-region-fits-window"
        ]
        assert failure.detail == "shared region overflows its window"

    def test_paper_array_fits_shared_window(self, paper_cfg):
        # 32x32 tiles x 4 banks x 128KB is exactly the 512MB window.
        [result] = [
            r for r in validate_design(paper_cfg).results
            if r.name == "shared-region-fits-window"
        ]
        assert result.ok
        assert result.detail == "shared region 536870912 B in a 536870912 B window"


class TestMemoryBank:
    def test_read_write(self):
        bank = MemoryBank(1024)
        bank.write_word(16, 0xCAFE)
        assert bank.read_word(16) == 0xCAFE
        assert bank.read_word(20) == 0

    def test_unaligned_rejected(self):
        with pytest.raises(EmulatorError):
            MemoryBank(1024).read_word(3)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(EmulatorError):
            MemoryBank(1024).write_word(1024, 0)

    def test_oversize_value_rejected(self):
        with pytest.raises(EmulatorError):
            MemoryBank(1024).write_word(0, 1 << 32)

    def test_counters(self):
        bank = MemoryBank(1024)
        bank.write_word(0, 1)
        bank.read_word(0)
        assert bank.reads == 1 and bank.writes == 1 and bank.access_count == 2
        bank.clear()
        assert bank.access_count == 0 and bank.read_word(0) == 0


class TestWaferscaleSystem:
    def test_faulty_tile_absent(self, tiny_cfg):
        fmap = FaultMap(tiny_cfg, frozenset({(1, 1)}))
        system = WaferscaleSystem(tiny_cfg, fmap)
        assert len(system.healthy_coords()) == 15
        assert (1, 1) not in system.healthy_coords()
        assert system.healthy_coords() == fmap.healthy_tiles()

    @pytest.mark.parametrize("engine", ["reference", "vector"])
    @pytest.mark.parametrize("dst", [(1, 1), (4, 0), (0, -1)])
    def test_message_to_faulty_tile_raises(self, tiny_cfg, engine, dst):
        fmap = FaultMap(tiny_cfg, frozenset({(1, 1)}))
        emulator = Emulator(WaferscaleSystem(tiny_cfg, fmap), engine=engine)
        with pytest.raises(EmulatorError, match="faulty or absent"):
            emulator.send((0, 0), dst, "x")

    @pytest.mark.parametrize("engine", ["reference", "vector"])
    def test_unreachable_remote_raises(self, tiny_cfg, engine):
        # (0, 0) loses both neighbours: no network or detour leaves it.
        fmap = FaultMap(tiny_cfg, frozenset({(0, 1), (1, 0)}))
        emulator = Emulator(WaferscaleSystem(tiny_cfg, fmap), engine=engine)
        emulator.send((0, 0), (3, 3), "x")
        with pytest.raises(NetworkError, match=r"\(0, 0\) -> \(3, 3\)"):
            emulator.superstep(lambda tile, inbox, em: 0)
