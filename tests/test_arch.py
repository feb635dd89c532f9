"""Tests for repro.arch (memory map, ISA, core, crossbar, tile, system)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.core import Core, CoreState
from repro.arch.crossbar import Crossbar
from repro.arch.isa import Opcode, assemble
from repro.arch.membank import MemoryBank
from repro.arch.memorymap import (
    CORE_PRIVATE_BASE,
    SHARED_BASE,
    TILE_PRIVATE_BASE,
    AddressRegion,
    MemoryMap,
)
from repro.arch.system import WaferscaleSystem
from repro.config import SystemConfig
from repro.errors import EmulatorError, MemoryMapError, NetworkError
from repro.noc.faults import FaultMap


class TestMemoryMap:
    def test_shared_region_size(self, paper_cfg):
        mm = MemoryMap(paper_cfg)
        assert mm.shared_size == 512 * 1024 * 1024

    def test_encode_decode_roundtrip_shared(self, small_cfg):
        mm = MemoryMap(small_cfg)
        addr = mm.shared_address((3, 5), bank=2, offset=1024)
        decoded = mm.decode(addr)
        assert decoded.region is AddressRegion.SHARED
        assert decoded.tile == (3, 5)
        assert decoded.bank == 2
        assert decoded.offset == 1024

    def test_tile_private_roundtrip(self, small_cfg):
        mm = MemoryMap(small_cfg)
        addr = mm.tile_private_address((1, 1), offset=512)
        decoded = mm.decode(addr)
        assert decoded.region is AddressRegion.TILE_PRIVATE
        assert decoded.tile == (1, 1)

    def test_core_private_window(self, small_cfg):
        mm = MemoryMap(small_cfg)
        decoded = mm.decode(mm.core_private_address(100))
        assert decoded.region is AddressRegion.CORE_PRIVATE
        assert decoded.tile is None

    def test_unmapped_address_raises(self, small_cfg):
        mm = MemoryMap(small_cfg)
        with pytest.raises(MemoryMapError):
            mm.decode(0x7000_0000)
        with pytest.raises(MemoryMapError):
            mm.decode(-1)

    def test_is_remote(self, small_cfg):
        mm = MemoryMap(small_cfg)
        addr = mm.shared_address((3, 3), 0, 0)
        assert mm.is_remote(addr, from_tile=(0, 0))
        assert not mm.is_remote(addr, from_tile=(3, 3))

    def test_foreign_tile_private_rejected(self, small_cfg):
        mm = MemoryMap(small_cfg)
        addr = mm.tile_private_address((2, 2), 0)
        with pytest.raises(MemoryMapError):
            mm.is_remote(addr, from_tile=(0, 0))

    def test_tile_id_roundtrip(self, small_cfg):
        mm = MemoryMap(small_cfg)
        for coord in small_cfg.tile_coords():
            assert mm.tile_of_id(mm.tile_id(coord)) == coord

    @given(
        tile=st.tuples(st.integers(0, 7), st.integers(0, 7)),
        bank=st.integers(0, 3),
        word=st.integers(0, (128 * 1024 // 4) - 1),
    )
    @settings(max_examples=50)
    def test_shared_roundtrip_property(self, tile, bank, word):
        mm = MemoryMap(SystemConfig(rows=8, cols=8))
        addr = mm.shared_address(tile, bank, word * 4)
        decoded = mm.decode(addr)
        assert (decoded.tile, decoded.bank, decoded.offset) == (tile, bank, word * 4)

    def test_regions_disjoint(self, small_cfg):
        mm = MemoryMap(small_cfg)
        assert SHARED_BASE + mm.shared_size <= TILE_PRIVATE_BASE
        assert TILE_PRIVATE_BASE + mm.tile_private_size <= CORE_PRIVATE_BASE


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

class TestAssembler:
    def test_forward_labels(self):
        program = assemble("""
            jmp end
            ldi r1, 99
        end:
            halt
        """)
        assert program.instructions[0].target == 2

    def test_comments_stripped(self):
        program = assemble("ldi r1, 5 ; set up\nhalt")
        assert len(program) == 2

    def test_unknown_mnemonic(self):
        with pytest.raises(EmulatorError):
            assemble("frobnicate r1")

    def test_undefined_label(self):
        with pytest.raises(EmulatorError):
            assemble("jmp nowhere\nhalt")

    def test_duplicate_label(self):
        with pytest.raises(EmulatorError):
            assemble("a:\nnop\na:\nhalt")

    def test_register_range(self):
        with pytest.raises(EmulatorError):
            assemble("ldi r16, 1")

    def test_hex_immediates(self):
        program = assemble("ldi r1, 0xff\nhalt")
        assert program.instructions[0].imm == 255


class _DirectPort:
    """A flat 1-cycle memory for core-only tests."""

    def __init__(self):
        self.mem = {}

    def read(self, core_index, address):
        return (self.mem.get(address, 0), 1)

    def write(self, core_index, address, value):
        self.mem[address] = value
        return 1


class TestCore:
    def run_program(self, source):
        port = _DirectPort()
        core = Core(0, port)
        core.load_program(assemble(source))
        core.run()
        return core, port

    def test_arithmetic(self):
        core, _ = self.run_program("""
            ldi r1, 7
            ldi r2, 5
            add r3, r1, r2
            sub r4, r1, r2
            mul r5, r1, r2
            halt
        """)
        assert core.registers[3] == 12
        assert core.registers[4] == 2
        assert core.registers[5] == 35

    def test_wraparound(self):
        core, _ = self.run_program("""
            ldi r1, -1
            ldi r2, 1
            add r3, r1, r2
            halt
        """)
        assert core.registers[3] == 0

    def test_logic_and_shifts(self):
        core, _ = self.run_program("""
            ldi r1, 0xf0
            ldi r2, 0x0f
            and r3, r1, r2
            or r4, r1, r2
            shl r5, r2, 4
            shr r6, r1, 4
            halt
        """)
        assert core.registers[3] == 0
        assert core.registers[4] == 0xFF
        assert core.registers[5] == 0xF0
        assert core.registers[6] == 0x0F

    def test_branching_loop(self):
        core, _ = self.run_program("""
            ldi r1, 0
            ldi r2, 10
            ldi r3, 1
        loop:
            beq r1, r2, done
            add r1, r1, r3
            jmp loop
        done:
            halt
        """)
        assert core.registers[1] == 10

    def test_signed_blt(self):
        core, _ = self.run_program("""
            ldi r1, -5
            ldi r2, 3
            ldi r4, 0
            blt r1, r2, yes
            jmp end
        yes:
            ldi r4, 1
        end:
            halt
        """)
        assert core.registers[4] == 1

    def test_memory_roundtrip(self):
        core, port = self.run_program("""
            ldi r1, 0x40
            ldi r2, 1234
            st r1, r2
            ld r3, r1
            halt
        """)
        assert core.registers[3] == 1234
        assert port.mem[0x40] == 1234

    def test_stall_accounting(self):
        class SlowPort(_DirectPort):
            def read(self, core_index, address):
                return (0, 10)

        core = Core(0, SlowPort())
        core.load_program(assemble("ldi r1, 0\nld r2, r1\nhalt"))
        core.run()
        assert core.stall_cycles == 9

    def test_runaway_detected(self):
        core = Core(0, _DirectPort())
        core.load_program(assemble("loop: jmp loop"))
        with pytest.raises(EmulatorError):
            core.run(max_cycles=100)

    def test_pc_off_end_detected(self):
        core = Core(0, _DirectPort())
        core.load_program(assemble("nop"))
        with pytest.raises(EmulatorError):
            core.run()


class TestCrossbar:
    def test_single_requests_granted(self):
        xbar = Crossbar(masters=4, targets=["bank0", "bank1"])
        grants = xbar.arbitrate({0: "bank0", 1: "bank1"})
        assert grants == {0: True, 1: True}
        assert xbar.stats.contention_ratio == 0.0

    def test_contention_one_winner(self):
        xbar = Crossbar(masters=4, targets=["bank0"])
        grants = xbar.arbitrate({0: "bank0", 1: "bank0", 2: "bank0"})
        assert sum(grants.values()) == 1
        assert xbar.stats.stalls == 2
        assert xbar.stats.contention_ratio == pytest.approx(2 / 3)

    def test_round_robin_fairness(self):
        xbar = Crossbar(masters=3, targets=["t"])
        done = xbar.service_cycles({0: "t", 1: "t", 2: "t"})
        assert sorted(done.values()) == [1, 2, 3]

    def test_unknown_master_target(self):
        xbar = Crossbar(masters=2, targets=["t"])
        with pytest.raises(EmulatorError):
            xbar.arbitrate({5: "t"})
        with pytest.raises(EmulatorError):
            xbar.arbitrate({0: "nope"})

    @given(n=st.integers(1, 14))
    @settings(max_examples=20)
    def test_n_contenders_take_n_cycles(self, n):
        xbar = Crossbar(masters=14, targets=["bank"])
        done = xbar.service_cycles({i: "bank" for i in range(n)})
        assert max(done.values()) == n


class TestWaferscaleSystem:
    def test_local_vs_remote_latency(self, tiny_cfg):
        system = WaferscaleSystem(tiny_cfg)
        mm = system.memory_map
        local = assemble(f"""
            ldi r1, {mm.shared_address((0, 0), 0, 0)}
            ld r2, r1
            halt
        """)
        remote = assemble(f"""
            ldi r1, {mm.shared_address((3, 3), 0, 0)}
            ld r2, r1
            halt
        """)
        tile = system.tile((0, 0))
        tile.load_program(0, local)
        local_cycles = tile.cores[0].run()
        tile.load_program(0, remote)
        remote_cycles = tile.cores[0].run()
        assert remote_cycles > local_cycles

    def test_remote_write_visible_at_owner(self, tiny_cfg):
        system = WaferscaleSystem(tiny_cfg)
        mm = system.memory_map
        program = assemble(f"""
            ldi r1, {mm.shared_address((2, 2), 1, 64)}
            ldi r2, 777
            st r1, r2
            halt
        """)
        system.tile((0, 0)).load_program(0, program)
        system.tile((0, 0)).cores[0].run()
        # The store was served by the owner's shared bank, not locally.
        assert system.tile((2, 2)).shared_bank_accesses == 1
        assert system.tile((0, 0)).shared_bank_accesses == 0
        assert system.read_shared((2, 2), 1, 64) == 777

    def test_broadcast_and_lockstep(self, tiny_cfg):
        system = WaferscaleSystem(tiny_cfg)
        program = assemble("""
            ldi r1, 2
            ldi r2, 3
            add r3, r1, r2
            halt
        """)
        system.broadcast_program(program)
        cycles = system.run_to_completion()
        assert cycles > 0
        for tile in system.tiles.values():
            for core in tile.cores:
                assert core.halted
                assert core.registers[3] == 5

    def test_faulty_tile_absent(self, tiny_cfg):
        fmap = FaultMap(tiny_cfg, frozenset({(1, 1)}))
        system = WaferscaleSystem(tiny_cfg, fmap)
        assert len(system.tiles) == 15
        with pytest.raises(EmulatorError):
            system.tile((1, 1))

    def test_unreachable_remote_raises(self, tiny_cfg):
        # Fault both neighbours patterns such that detour also fails: fault
        # every tile except two opposite corners in the same row? Simpler:
        # isolate (0,0) completely.
        fmap = FaultMap(tiny_cfg, frozenset({(0, 1), (1, 0)}))
        system = WaferscaleSystem(tiny_cfg, fmap)
        mm = system.memory_map
        program = assemble(f"""
            ldi r1, {mm.shared_address((3, 3), 0, 0)}
            ld r2, r1
            halt
        """)
        system.tile((0, 0)).load_program(0, program)
        with pytest.raises(NetworkError):
            system.tile((0, 0)).cores[0].run()

    def test_hop_accounting(self, tiny_cfg):
        system = WaferscaleSystem(tiny_cfg)
        mm = system.memory_map
        program = assemble(f"""
            ldi r1, {mm.shared_address((0, 3), 0, 0)}
            ld r2, r1
            halt
        """)
        system.tile((0, 0)).load_program(0, program)
        system.tile((0, 0)).cores[0].run()
        assert system.network_accesses == 1
        assert system.mean_hops_per_access == 6.0   # 3 hops each way
