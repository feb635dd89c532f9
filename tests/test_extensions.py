"""Tests for the future-work extensions: TWV, DTC, thermal, CDC, MBIST."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.arch.membank import MemoryBank
from repro.clock.cdc import (
    ForwardedClockQuality,
    crossing_latency_cycles,
    required_fifo_depth,
    worst_chain_analysis,
)
from repro.config import SystemConfig
from repro.dft.mbist import (
    FaultKind,
    FaultyBank,
    InjectedFault,
    march_c_minus,
)
from repro.errors import ClockError, JtagError, PdnError
from repro.pdn.dtc import DtcUpgrade, dtc_upgrade_summary
from repro.pdn.twv import TwvTechnology, max_tile_power_w, solve_twv_delivery
from repro.thermal.grid import ThermalGrid
from repro.thermal.limits import (
    max_power_per_tile_w,
    system_power_budget_w,
)
from repro.verify.strategies import (
    bit_positions,
    hop_counts,
    mbist_fault_kinds,
    word_offsets,
)


class TestTwv:
    def test_via_resistance_order(self):
        tech = TwvTechnology()
        # 700um deep, 50um diameter copper: a few milliohms.
        assert 1e-3 < tech.via_resistance_ohm < 20e-3

    def test_delivery_droop_tiny(self, paper_cfg):
        result = solve_twv_delivery(paper_cfg)
        assert result.tile_droop_v < 0.01
        assert result.delivered_voltage > 1.45

    def test_droop_position_independent(self, paper_cfg):
        assert solve_twv_delivery(paper_cfg).droop_uniform

    def test_prototype_sits_at_edge_delivery_wall(self, paper_cfg):
        """The design-point consistency result: 350mW/tile is the edge-
        delivery limit at the 1.4V LDO floor — which is the paper's
        operating point, and why higher power needs TWV."""
        limit = max_tile_power_w(paper_cfg, scheme="edge")
        assert limit == pytest.approx(paper_cfg.tile_peak_power_w, rel=0.05)

    def test_twv_scales_far_beyond_edge(self, paper_cfg):
        edge = max_tile_power_w(paper_cfg, scheme="edge")
        twv = max_tile_power_w(paper_cfg, scheme="twv")
        assert twv > 10 * edge

    def test_invalid_geometry(self):
        with pytest.raises(PdnError):
            TwvTechnology(depth_um=0)
        with pytest.raises(PdnError):
            TwvTechnology(pitch_um=10.0, diameter_um=50.0)
        with pytest.raises(PdnError):
            max_tile_power_w(scheme="wireless")

    def test_invalid_delivery_inputs(self, small_cfg):
        with pytest.raises(PdnError, match="area fraction"):
            TwvTechnology().vias_per_tile(small_cfg, area_fraction=0.0)
        with pytest.raises(PdnError, match="tile power"):
            solve_twv_delivery(small_cfg, tile_power_w=-1.0)

    def test_more_vias_less_droop(self, paper_cfg):
        few = solve_twv_delivery(paper_cfg, via_area_fraction=0.01)
        many = solve_twv_delivery(paper_cfg, via_area_fraction=0.20)
        assert many.tile_droop_v < few.tile_droop_v


class TestDtc:
    def test_footnote2_improvement(self, paper_cfg):
        summary = dtc_upgrade_summary(paper_cfg)
        assert summary["capacitance_gain_x"] > 10
        assert summary["droop_mv"] < 20
        assert summary["reclaimed_chiplet_area_mm2"] > 3.0

    def test_capacitance_scales_with_area(self, paper_cfg):
        small = DtcUpgrade(paper_cfg, dtc_area_fraction=0.1)
        large = DtcUpgrade(paper_cfg, dtc_area_fraction=0.4)
        assert large.capacitance_f == pytest.approx(4 * small.capacitance_f)

    def test_invalid_fraction(self, paper_cfg):
        with pytest.raises(PdnError):
            DtcUpgrade(paper_cfg, dtc_area_fraction=0.0)
        with pytest.raises(PdnError):
            DtcUpgrade(paper_cfg, dtc_area_fraction=1.5)

    def test_invalid_density(self, paper_cfg):
        with pytest.raises(PdnError, match="DTC density"):
            DtcUpgrade(paper_cfg, dtc_area_fraction=0.2, dtc_density_f_per_mm2=0.0)


class TestThermal:
    def test_prototype_runs_cool(self, paper_cfg):
        solution = ThermalGrid(paper_cfg).solve()
        # 725W over 15,000mm2 with a cold plate: single-digit rise.
        assert solution.max_rise_c < 15.0

    def test_uniform_power_uniform_temperature(self, paper_cfg):
        solution = ThermalGrid(paper_cfg).solve()
        assert solution.gradient_c < 0.1

    def test_hotspot_follows_power(self, small_cfg):
        power = np.full((8, 8), 0.35)
        power[4, 4] = 3.5
        solution = ThermalGrid(small_cfg).solve(power)
        assert solution.temperature_at((4, 4)) == pytest.approx(
            solution.max_temperature_c
        )
        assert solution.gradient_c > 0.1

    def test_lateral_spreading(self, small_cfg):
        power = np.zeros((8, 8))
        power[4, 4] = 5.0
        solution = ThermalGrid(small_cfg).solve(power)
        # Neighbours get warmer than far corners: silicon spreads heat.
        assert solution.temperature_at((4, 5)) > solution.temperature_at((0, 0))

    def test_zero_power_is_ambient(self, small_cfg):
        solution = ThermalGrid(small_cfg).solve(0.0, ambient_c=30.0)
        np.testing.assert_allclose(solution.temperatures_c, 30.0, rtol=1e-9)

    def test_linearity(self, small_cfg):
        one = ThermalGrid(small_cfg).solve(0.5)
        two = ThermalGrid(small_cfg).solve(1.0)
        assert two.max_rise_c == pytest.approx(2 * one.max_rise_c)

    def test_better_cooling_lower_rise(self, small_cfg):
        air = ThermalGrid(small_cfg, sink_h_w_per_m2_k=500.0).solve()
        liquid = ThermalGrid(small_cfg, sink_h_w_per_m2_k=5000.0).solve()
        assert liquid.max_rise_c < air.max_rise_c

    def test_power_budget(self, paper_cfg):
        budget_kw = system_power_budget_w(paper_cfg) / 1000.0
        assert budget_kw > 1.0      # well beyond the sub-kW prototype

    def test_max_power_consistent(self, paper_cfg):
        limit = max_power_per_tile_w(paper_cfg, tj_max_c=105.0, ambient_c=25.0)
        at_limit = ThermalGrid(paper_cfg).solve(limit)
        assert at_limit.max_temperature_c == pytest.approx(105.0, abs=0.5)

    def test_power_map_must_match_grid(self, small_cfg):
        grid = ThermalGrid(small_cfg)
        with pytest.raises(PdnError, match="power map shape"):
            grid.solve(np.ones((small_cfg.rows, small_cfg.cols + 1)))

    def test_invalid_inputs(self, small_cfg):
        with pytest.raises(PdnError):
            ThermalGrid(small_cfg, sink_h_w_per_m2_k=0)
        with pytest.raises(PdnError):
            ThermalGrid(small_cfg).solve(-1.0)
        with pytest.raises(PdnError):
            max_power_per_tile_w(small_cfg, tj_max_c=20.0, ambient_c=25.0)


class TestCdc:
    def test_jitter_random_walk(self):
        q1 = ForwardedClockQuality(hops=16)
        q2 = ForwardedClockQuality(hops=64)
        assert q2.accumulated_jitter_rms_s == pytest.approx(
            2 * q1.accumulated_jitter_rms_s
        )

    def test_phase_delay_linear(self):
        q = ForwardedClockQuality(hops=10)
        assert q.phase_delay_s == pytest.approx(10 * q.hop_delay_s)

    def test_deep_chain_breaks_synchronous_budget(self):
        deep = ForwardedClockQuality(hops=62)
        assert not deep.synchronous_crossing_viable

    def test_shallow_chain_would_be_synchronous(self):
        shallow = ForwardedClockQuality(hops=4)
        assert shallow.synchronous_crossing_viable

    def test_fifo_depth_power_of_two_and_small(self):
        for hops in (1, 16, 62):
            depth = required_fifo_depth(ForwardedClockQuality(hops=hops))
            assert depth & (depth - 1) == 0
            assert depth <= 16      # footnote 3: a small FIFO suffices

    def test_invalid_inputs(self):
        with pytest.raises(ClockError, match="hops"):
            ForwardedClockQuality(hops=-1)
        with pytest.raises(ClockError, match="clock frequency"):
            ForwardedClockQuality(hops=4, clock_hz=0.0)
        with pytest.raises(ClockError, match="synchronizer stages"):
            required_fifo_depth(ForwardedClockQuality(hops=4), synchronizer_stages=1)

    def test_crossing_latency(self):
        assert crossing_latency_cycles() == 3
        with pytest.raises(ClockError):
            crossing_latency_cycles(synchronizer_stages=1)

    def test_worst_chain_analysis(self):
        analysis = worst_chain_analysis()
        assert analysis["hops"] == 62.0
        assert analysis["synchronous_viable"] == 0.0
        assert analysis["fifo_depth"] <= 16

    @given(hops=hop_counts())
    @settings(max_examples=30)
    def test_fifo_depth_monotone(self, hops):
        d1 = required_fifo_depth(ForwardedClockQuality(hops=hops))
        d2 = required_fifo_depth(ForwardedClockQuality(hops=hops + 50))
        assert d2 >= d1


class TestMbist:
    def test_clean_bank_passes(self):
        assert march_c_minus(MemoryBank(8192)).passed

    @pytest.mark.parametrize("kind", list(FaultKind))
    def test_march_c_detects_all_kinds(self, kind):
        bank = FaultyBank(MemoryBank(4096), [InjectedFault(kind, 256, 7)])
        result = march_c_minus(bank)
        assert not result.passed
        assert 256 in result.failing_offsets

    def test_multiple_faults_all_located(self):
        faults = [
            InjectedFault(FaultKind.STUCK_AT_0, 0, 3),
            InjectedFault(FaultKind.STUCK_AT_1, 512, 31),
        ]
        result = march_c_minus(FaultyBank(MemoryBank(4096), faults))
        assert result.failing_offsets == [0, 512]

    def test_operation_count_10n(self):
        bank = MemoryBank(4096)
        result = march_c_minus(bank)
        assert result.operations == 10 * (4096 // 4)

    def test_invalid_fault(self):
        with pytest.raises(JtagError):
            InjectedFault(FaultKind.STUCK_AT_0, 0, 32)
        with pytest.raises(JtagError):
            InjectedFault(FaultKind.STUCK_AT_0, 3, 0)

    @given(
        offset_words=word_offsets(),
        bit=bit_positions(),
        kind=mbist_fault_kinds(),
    )
    @settings(max_examples=25, deadline=None)
    def test_march_c_always_detects_property(self, offset_words, bit, kind):
        fault = InjectedFault(kind, offset_words * 4, bit)
        bank = FaultyBank(MemoryBank(4096), [fault])
        result = march_c_minus(bank)
        assert not result.passed
        assert fault.offset in result.failing_offsets
