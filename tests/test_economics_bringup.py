"""Tests for bring-up orchestration, cost model, interposer, energy, load-latency."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.energy import EnergyModel
from repro.config import SystemConfig
from repro.errors import ConfigError, EmulatorError, NetworkError, ReproError
from repro.flow.bringup import (
    fault_map_to_json,
    run_bringup,
)
from repro.io.interposer import (
    IntegrationTechnology,
    density_advantage,
    interposer,
    si_if,
    technology_comparison,
)
from repro.noc.faults import random_fault_map
from repro.noc.loadlatency import LoadLatencyCurve, measure_load_latency
from repro.yieldmodel.cost import (
    CostInputs,
    chiplet_system_cost,
    cost_comparison,
    monolithic_system_cost,
)


class TestBringup:
    def test_clean_wafer(self, small_cfg):
        report = run_bringup(small_cfg)
        assert report.all_faults == set()
        assert report.usable_tiles == 64
        assert report.clock is not None and report.clock.coverage == 1.0
        assert report.system is not None

    def test_locates_multiple_faults_per_row(self, small_cfg):
        faults = {(2, 1), (2, 4), (2, 6), (5, 0)}
        report = run_bringup(small_cfg, true_bonding_faults=faults)
        assert report.bonding_faults == faults

    def test_memory_faults_found_by_mbist(self, small_cfg):
        report = run_bringup(small_cfg, memory_fault_tiles={(3, 3)})
        assert report.memory_faults == {(3, 3)}
        assert report.final_map is not None
        assert report.final_map.is_faulty((3, 3))

    def test_clock_unreachable_tiles_excluded(self, small_cfg):
        # Surround (3, 3): it bonds fine but can never receive the clock.
        faults = {(2, 3), (4, 3), (3, 2), (3, 4)}
        report = run_bringup(small_cfg, true_bonding_faults=faults)
        assert (3, 3) in report.clock_unreachable
        assert report.final_map.is_faulty((3, 3))
        assert report.usable_tiles == 64 - 5

    def test_overlapping_fault_sets_rejected(self, small_cfg):
        with pytest.raises(ReproError):
            run_bringup(
                small_cfg,
                true_bonding_faults={(1, 1)},
                memory_fault_tiles={(1, 1)},
            )

    def test_unroll_test_count_reasonable(self, small_cfg):
        report = run_bringup(small_cfg, true_bonding_faults={(0, 4)})
        # Row 0 tests 0..4 then resumes 5..7 => 8 tests total for row 0;
        # other rows test all 8 tiles.
        assert report.unroll_tests_run == 8 * 8

    @given(seed=st.integers(0, 200))
    @settings(max_examples=10, deadline=None)
    def test_bringup_always_finds_ground_truth(self, seed):
        cfg = SystemConfig(rows=6, cols=6)
        fmap = random_fault_map(cfg, 4, rng=seed)
        report = run_bringup(cfg, true_bonding_faults=set(fmap.faulty))
        assert report.bonding_faults == set(fmap.faulty)

    def test_final_map_serialises_for_the_kernel(self, small_cfg):
        report = run_bringup(small_cfg, true_bonding_faults={(5, 0), (2, 4)})
        payload = json.loads(fault_map_to_json(report.final_map))
        assert payload == {"rows": 8, "cols": 8, "faulty": [[2, 4], [5, 0]]}


class TestCostModel:
    def test_chiplet_dramatically_cheaper(self, paper_cfg):
        comparison = cost_comparison(paper_cfg)
        assert comparison["monolithic_over_chiplet"] > 10
        assert comparison["chiplet_yield"] > 0.99
        assert comparison["monolithic_yield"] < 0.2

    def test_cost_components_positive(self, paper_cfg):
        cost = chiplet_system_cost(paper_cfg)
        assert cost.silicon_cost > 0
        assert cost.substrate_cost > 0
        assert cost.assembly_cost > 0
        assert cost.cost_per_good_system >= cost.cost_per_attempt * (1 - 1e-12)

    def test_monolithic_yield_drives_cost(self, paper_cfg):
        cost = monolithic_system_cost(paper_cfg)
        assert cost.cost_per_good_system == pytest.approx(
            cost.cost_per_attempt / cost.assembled_yield
        )

    def test_zero_yield_infinite_cost(self, paper_cfg):
        tight = CostInputs(tolerated_faulty_tiles=0)
        cost = monolithic_system_cost(paper_cfg, tight)
        assert cost.cost_per_good_system > 1e6   # effectively unbuildable

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigError):
            CostInputs(logic_wafer_cost=-1)


class TestInterposer:
    def test_16x_density_claim(self):
        assert density_advantage() == pytest.approx(16.0)

    def test_si_if_wins_link_width(self):
        rows = {r["name"]: r for r in technology_comparison()}
        assert rows["Si-IF"]["link_width"] > 3 * rows["interposer"]["link_width"]

    def test_si_if_supports_paper_link(self):
        # A 2.4mm edge must carry the 400-bit link + clocks/tests.
        assert si_if().link_width_per_edge(2.4) >= 406

    def test_interposer_cannot(self):
        assert interposer().link_width_per_edge(2.4) < 406

    def test_bump_pitch_limits_interposer(self):
        tech = interposer()
        assert tech.edge_ios_per_mm < tech.edge_wires_per_mm

    def test_invalid_technology(self):
        with pytest.raises(ConfigError):
            IntegrationTechnology("bad", 0, 5, 2, 100)
        with pytest.raises(ConfigError):
            si_if().link_width_per_edge(0)


class TestEnergy:
    def test_breakdown_totals(self):
        model = EnergyModel()
        result = model.workload_energy(core_ops=1000, sram_accesses=500, packet_hops=100)
        assert result.total_j == pytest.approx(
            result.core_j + result.sram_j
            + result.network_link_j + result.network_router_j
        )
        assert 0 <= result.communication_fraction <= 1

    def test_link_energy_from_section5_cell(self):
        model = EnergyModel()
        per_packet = model.link_energy_per_packet_j()
        # 100 bits at ~0.063pJ/bit: ~6pJ.
        assert per_packet == pytest.approx(6.3e-12, rel=0.1)

    def test_on_wafer_vs_off_package(self):
        model = EnergyModel()
        result = model.waferscale_vs_off_package(bits_moved=10**9, mean_hops=10)
        assert result["advantage_x"] > 5     # Section I's motivation

    def test_emulation_energy(self, tiny_cfg):
        from repro.arch.system import WaferscaleSystem
        from repro.workloads.bfs import DistributedBfs
        from repro.workloads.graphs import random_graph

        system = WaferscaleSystem(tiny_cfg)
        result = DistributedBfs(system, random_graph(100, 4.0, seed=1)).run(0)
        breakdown = EnergyModel(tiny_cfg).emulation_energy(result.stats)
        assert breakdown.total_j > 0
        assert len(breakdown.rows()) == 6

    def test_negative_counts_rejected(self):
        with pytest.raises(EmulatorError):
            EnergyModel().workload_energy(-1, 0, 0)


class TestLoadLatency:
    def test_latency_rises_with_load(self):
        cfg = SystemConfig(rows=6, cols=6)
        curve = measure_load_latency(
            cfg, rates=[0.02, 0.5], warm_cycles=150, seed=1
        )
        assert curve.points[-1].mean_latency > curve.points[0].mean_latency

    def test_zero_load_latency_sane(self):
        cfg = SystemConfig(rows=6, cols=6)
        curve = measure_load_latency(cfg, rates=[0.02], warm_cycles=80)
        # Mean Manhattan distance on 6x6 is ~4; plus injection overhead.
        assert 2.0 < curve.zero_load_latency() < 15.0

    def test_bad_rates_rejected(self):
        cfg = SystemConfig(rows=4, cols=4)
        with pytest.raises(NetworkError):
            measure_load_latency(cfg, rates=[0.0])
        with pytest.raises(NetworkError):
            measure_load_latency(cfg, rates=[1.5])
        with pytest.raises(NetworkError, match="rates"):
            measure_load_latency(cfg, rates=[])

    def test_saturation_rate_is_the_first_knee(self):
        cfg = SystemConfig(rows=4, cols=4)
        curve = measure_load_latency(
            cfg, rates=[0.5, 0.02], warm_cycles=60, seed=1,
            latency_saturation_factor=1.0,
        )
        # Points come back sorted; with a knee at 1x zero-load latency
        # the heavier point is past it and the lighter one is not.
        assert [p.injection_rate for p in curve.points] == [0.02, 0.5]
        assert [p.saturated for p in curve.points] == [False, True]
        assert curve.saturation_rate() == 0.5
        assert curve.rows()[1][-1] == "SAT"

    def test_no_knee_inside_the_sweep(self):
        cfg = SystemConfig(rows=4, cols=4)
        curve = measure_load_latency(cfg, rates=[0.02], warm_cycles=40)
        assert curve.saturation_rate() == float("inf")
        empty = LoadLatencyCurve(cfg, curve.pattern, [])
        assert empty.saturation_rate() == float("inf")
        with pytest.raises(NetworkError, match="empty curve"):
            empty.zero_load_latency()

    def test_rows_render(self):
        cfg = SystemConfig(rows=4, cols=4)
        curve = measure_load_latency(cfg, rates=[0.05], warm_cycles=40)
        assert len(curve.rows()) == 1
