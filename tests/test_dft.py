"""Tests for repro.dft (JTAG, DAP chains, broadcast, unrolling, probes)."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.membank import MemoryBank
from repro.config import SystemConfig
from repro.dft.broadcast import BroadcastLoader, LoadMode
from repro.dft.dap import ChainMode, CoreDap, TileDapChain
from repro.dft.jtag import JtagChain, JtagDevice
from repro.dft.mbist import _march
from repro.dft.multichain import (
    load_time_model,
    paper_load_time_comparison,
    row_chains,
    single_chain,
)
from repro.dft.probe import PadSet, ProbeCard, ProbePlan, can_probe, probe_plan
from repro.dft.unrolling import (
    ChainTestSession,
    TileUnderTest,
    during_assembly_check,
    locate_faulty_tiles,
)
from repro.errors import JtagError


class TestJtagChain:
    def test_shift_through_two_devices(self):
        a = JtagDevice("a", ir_length=4)
        b = JtagDevice("b", ir_length=4)
        chain = JtagChain([a, b])
        chain.select_all("BYPASS")
        # Two bypass bits: a 1 emerges after 2 shifts.
        tdo = chain.shift_dr([1, 0, 0])
        assert tdo == [0, 0, 1]

    def test_dr_values_land_in_devices(self):
        a = JtagDevice("a", ir_length=4, dr_lengths={"BYPASS": 1, "REG": 4})
        b = JtagDevice("b", ir_length=4, dr_lengths={"BYPASS": 1, "REG": 4})
        chain = JtagChain([a, b])
        chain.select_all("REG")
        # Shift 8 bits: the last 4 shifted end up in device a (nearest TDI).
        chain.shift_dr([1, 1, 1, 1, 0, 1, 0, 1])
        assert a.dr_value != 0 or b.dr_value != 0
        assert chain.total_dr_bits == 8

    def test_bit_exact_pattern_recovery(self):
        """Whatever is shifted in comes out after total_dr_bits shifts."""
        devices = [
            JtagDevice(f"d{i}", ir_length=4, dr_lengths={"BYPASS": 1, "R": 3})
            for i in range(4)
        ]
        chain = JtagChain(devices)
        chain.select_all("R")
        pattern = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0]
        tdo_first = chain.shift_dr(pattern)
        tdo_second = chain.shift_dr([0] * len(pattern))
        assert tdo_second == pattern    # the pattern re-emerges intact

    def test_broken_chain_raises(self):
        a = JtagDevice("a", ir_length=4)
        b = JtagDevice("b", ir_length=4, faulty=True)
        chain = JtagChain([a, b])
        assert chain.broken
        with pytest.raises(JtagError):
            chain.shift_dr([1])

    def test_unknown_instruction(self):
        with pytest.raises(JtagError):
            JtagDevice("a", ir_length=4).select("NOPE")

    def test_scan_cycles_accounting(self):
        chain = JtagChain([JtagDevice(f"d{i}", 4) for i in range(8)])
        cycles = chain.scan_cycles(words=10, word_bits=35)
        assert cycles == 10 * (35 + 7 + 10)

    def test_ir_length_minimum(self):
        with pytest.raises(JtagError):
            JtagDevice("bad", ir_length=1)


class TestDapChainFig9:
    def test_14x_latency_reduction(self):
        assert TileDapChain().latency_reduction() == pytest.approx(14.0)

    def test_visible_daps(self):
        assert TileDapChain(mode=ChainMode.CHAINED).visible_dap_count() == 14
        assert TileDapChain(mode=ChainMode.BROADCAST).visible_dap_count() == 1

    def test_broadcast_loads_every_core(self):
        tile = TileDapChain(mode=ChainMode.BROADCAST)
        tile.broadcast_load([0xDEAD, 0xBEEF])
        for dap in tile.daps:
            assert dap.loaded_words == [0xDEAD, 0xBEEF]

    def test_chained_loads_distinct(self):
        tile = TileDapChain(cores=3, mode=ChainMode.CHAINED)
        tile.chained_load([[1], [2], [3]])
        assert [d.loaded_words for d in tile.daps] == [[1], [2], [3]]

    def test_mode_mismatch_rejected(self):
        with pytest.raises(JtagError):
            TileDapChain(mode=ChainMode.CHAINED).broadcast_load([1])
        with pytest.raises(JtagError):
            TileDapChain(mode=ChainMode.BROADCAST).chained_load([[1]] * 14)

    @given(cores=st.integers(1, 32), payload=st.integers(1, 4096))
    def test_reduction_equals_core_count(self, cores, payload):
        chain = TileDapChain(cores=cores)
        assert chain.latency_reduction(payload) == pytest.approx(cores)


class TestBroadcastLoader:
    def test_modes_ordering(self):
        loader = BroadcastLoader()
        unicast = loader.estimate(4096, LoadMode.UNICAST)
        tile = loader.estimate(4096, LoadMode.BROADCAST_TILE)
        chain = loader.estimate(4096, LoadMode.BROADCAST_CHAIN)
        assert unicast.total_shift_bits > tile.total_shift_bits > chain.total_shift_bits

    def test_tile_broadcast_is_14x(self):
        loader = BroadcastLoader(cores_per_tile=14)
        tile = loader.estimate(4096, LoadMode.BROADCAST_TILE)
        assert tile.reduction_vs_unicast == pytest.approx(14.0)

    def test_tile_latency_reduction_is_14x(self):
        assert BroadcastLoader().tile_latency_reduction() == pytest.approx(14.0)

    def test_simulate_tile_load_reaches_every_core(self):
        tile = BroadcastLoader().simulate_tile_load([7, 9])
        assert tile.mode is ChainMode.BROADCAST
        assert [dap.loaded_words for dap in tile.daps] == [[7, 9]] * 14
        # Chained view of the same tile: one JTAG device per core.
        assert len(tile.chain.devices) == 14

    def test_seconds_at_tck(self):
        loader = BroadcastLoader(tck_hz=10e6)
        estimate = loader.estimate(1250, LoadMode.BROADCAST_CHAIN)    # 10k bits
        assert estimate.seconds == pytest.approx(1e-3)


class TestUnrollingFig10:
    def test_healthy_chain_fully_unrolls(self):
        assert locate_faulty_tiles([True] * 16) == []

    def test_first_faulty_located(self):
        for position in (0, 3, 15):
            health = [True] * 16
            health[position] = False
            assert locate_faulty_tiles(health) == [position]

    def test_unroll_stops_at_failure(self):
        health = [True, True, False, True, False]
        tiles = [TileUnderTest(index=i, healthy=h) for i, h in enumerate(health)]
        session = ChainTestSession(tiles=tiles)
        faulty = session.unroll()
        assert faulty == [2]
        assert session.tests_run == 3       # tiles 0, 1, then the failure

    def test_frontier_enforced(self):
        tiles = [TileUnderTest(index=i) for i in range(4)]
        session = ChainTestSession(tiles=tiles)
        with pytest.raises(JtagError):
            session.test_tile(2)            # cannot skip ahead

    def test_visible_chain_grows(self):
        tiles = [TileUnderTest(index=i) for i in range(4)]
        session = ChainTestSession(tiles=tiles)
        session.unroll()
        lengths = [s.visible_chain_length for s in session.steps]
        assert lengths == [1, 2, 3, 4]

    def test_during_assembly_partial(self):
        health = [True, True, False, True]
        faulty, good = during_assembly_check(2, health)
        assert good and faulty == []
        faulty, good = during_assembly_check(3, health)
        assert not good and faulty == [2]

    def test_bad_indices_rejected(self):
        with pytest.raises(JtagError):
            ChainTestSession(tiles=[TileUnderTest(index=5)])

    def test_unbonded_chiplet_cuts_the_chain(self):
        tiles = [TileUnderTest(index=i, forward_mode=True) for i in range(5)]
        session = ChainTestSession(tiles=tiles)
        assert session.reachable_prefix() == 5
        tiles[3].bonded = False
        # Tiles 0-2 forward, tile 3 is missing: its bypass wiring is gone.
        assert session.reachable_prefix() == 3
        tiles[1].forward_mode = False
        assert session.reachable_prefix() == 2

    @given(health=st.lists(st.booleans(), min_size=1, max_size=64))
    @settings(max_examples=50)
    def test_locates_first_failure_property(self, health):
        result = locate_faulty_tiles(health)
        if all(health):
            assert result == []
        else:
            assert result == [health.index(False)]


class TestMultiChainSection7:
    def test_row_chain_count(self, paper_cfg):
        plan = row_chains(paper_cfg)
        assert plan.chain_count == 32
        assert plan.max_chain_length == 32

    def test_single_chain_covers_everything(self, paper_cfg):
        plan = single_chain(paper_cfg)
        assert plan.chain_count == 1
        assert plan.max_chain_length == 1024

    def test_serpentine_is_contiguous(self, paper_cfg):
        tiles = single_chain(paper_cfg).chains[0].tiles
        for a, b in zip(tiles, tiles[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1

    def test_row_chains_achieve_10mhz(self, paper_cfg):
        assert row_chains(paper_cfg).tck_hz() == pytest.approx(10e6)

    def test_single_chain_tck_degraded(self, paper_cfg):
        assert single_chain(paper_cfg).tck_hz() < 1e6

    def test_paper_load_comparison(self, paper_cfg):
        result = paper_load_time_comparison(paper_cfg)
        assert result["single_chain_hours"] == pytest.approx(2.5, rel=0.1)
        assert result["multi_chain_minutes"] < 5.0
        assert result["speedup"] == pytest.approx(32.0)

    def test_load_time_scales_inverse_chains(self, paper_cfg):
        single = load_time_model(single_chain(paper_cfg))
        multi = load_time_model(row_chains(paper_cfg))
        assert single.seconds == pytest.approx(multi.seconds * 32)

    def test_custom_payload(self, paper_cfg):
        estimate = load_time_model(row_chains(paper_cfg), total_bytes=0)
        assert estimate.seconds == 0.0


class TestProbeFig8:
    def test_fine_pads_not_probeable(self):
        fine = PadSet(name="fine", count=2020, pitch_um=10.0, width_um=7.0)
        assert not can_probe(fine)

    def test_large_pads_probeable(self):
        test = PadSet(name="test", count=12, pitch_um=90.0, width_um=60.0)
        assert can_probe(test)

    def test_plan_validates(self):
        plan = probe_plan(2020)
        assert plan.test_pads.probed
        assert not plan.fine_pads.probed
        assert plan.bondable_pads().count == 2020

    def test_probed_fine_pads_unbondable(self):
        plan = probe_plan(2020)
        damaged = PadSet(
            name="fine", count=2020, pitch_um=10.0, width_um=7.0, probed=True
        )
        broken = type(plan)(fine_pads=damaged, test_pads=plan.test_pads)
        with pytest.raises(JtagError):
            broken.bondable_pads()

    def test_undersized_probe_pads_rejected(self):
        with pytest.raises(JtagError):
            probe_plan(2020, probe_pad_pitch_um=30.0)

    def test_pad_geometry_validation(self):
        with pytest.raises(JtagError):
            PadSet(name="bad", count=1, pitch_um=5.0, width_um=7.0)


def _probeable_fine_pads():
    plan = probe_plan(2020)
    return ProbePlan(
        fine_pads=replace(plan.fine_pads, pitch_um=100.0, width_um=50.0),
        test_pads=plan.test_pads,
    )


def _probed_fine_pads():
    plan = probe_plan(2020)
    return ProbePlan(
        fine_pads=replace(plan.fine_pads, probed=True),
        test_pads=plan.test_pads,
    )


_CFG4 = SystemConfig(rows=4, cols=4)

#: (id, call, message) for every DFT model input that cannot describe
#: test hardware; each must raise JtagError naming the problem.
_MALFORMED_DFT_INPUTS = [
    ("load-negative-bytes",
     lambda: load_time_model(row_chains(_CFG4), total_bytes=-4),
     "total_bytes"),
    ("load-zero-cycles-per-word",
     lambda: load_time_model(row_chains(_CFG4), cycles_per_word=0),
     "cycles_per_word"),
    ("load-zero-tck",
     lambda: load_time_model(row_chains(_CFG4), tck_hz=0.0),
     "TCK"),
    ("broadcast-no-cores", lambda: BroadcastLoader(cores_per_tile=0),
     "cores and tiles"),
    ("broadcast-zero-tck", lambda: BroadcastLoader(tck_hz=0.0), "TCK"),
    ("broadcast-negative-program",
     lambda: BroadcastLoader().estimate(-1, LoadMode.UNICAST),
     "program size"),
    ("dap-negative-core", lambda: CoreDap(-1), "core index"),
    ("dap-chain-no-cores", lambda: TileDapChain(cores=0), "at least one core"),
    ("dap-empty-payload",
     lambda: TileDapChain().scan_bits_for_all_cores(0), "at least one bit"),
    ("device-without-bypass",
     lambda: JtagDevice("d", ir_length=4, dr_lengths={"IDCODE": 32}),
     "BYPASS"),
    ("empty-chain", lambda: JtagChain([]), "at least one device"),
    ("empty-unroll-session", lambda: ChainTestSession(tiles=[]), "no tiles"),
    ("assembly-bonded-count",
     lambda: during_assembly_check(5, [True] * 4), "out of range"),
    ("padset-negative-count",
     lambda: PadSet(name="p", count=-1, pitch_um=10.0, width_um=5.0),
     "non-negative"),
    ("padset-zero-pitch",
     lambda: PadSet(name="p", count=1, pitch_um=0.0, width_um=5.0),
     "geometry must be positive"),
    ("probe-fine-pads-probeable",
     lambda: _probeable_fine_pads().validate(), "should not be probeable"),
    ("probe-fine-pads-probed",
     lambda: _probed_fine_pads().validate(), "never be probed"),
    ("march-direction",
     lambda: _march(MemoryBank(64), [("sideways", [("r", 0)])], "bad"),
     "direction"),
    ("march-op",
     lambda: _march(MemoryBank(64), [("up", [("x", 0)])], "bad"),
     "op"),
]


@pytest.mark.parametrize(
    "call, message",
    [case[1:] for case in _MALFORMED_DFT_INPUTS],
    ids=[case[0] for case in _MALFORMED_DFT_INPUTS],
)
def test_malformed_dft_inputs_rejected(call, message):
    with pytest.raises(JtagError, match=message):
        call()
