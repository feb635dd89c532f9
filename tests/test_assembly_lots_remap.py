"""Tests for assembly policies, lot simulation, and logical-grid remapping."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.config import SystemConfig
from repro.dft.assembly import (
    AssemblyPolicy,
    assemble_wafer,
    evaluate_policy,
    sweep_check_intervals,
)
from repro.errors import ConfigError, FaultMapError, JtagError
from repro.io.bonding import chiplet_bond_yield
from repro.noc.faults import FaultMap, random_fault_map
from repro.noc.remap import (
    best_logical_grid,
    largest_fault_free_rectangle,
    logical_system_config,
    row_column_deletion,
)
from repro.verify.strategies import fault_counts, seeds
from repro.yieldmodel.lots import (
    BinPolicy,
    pillar_redundancy_lot_comparison,
    simulate_lot,
)


class TestAssemblyPolicy:
    def test_perfect_bonding_always_completes(self, small_cfg):
        policy = AssemblyPolicy(check_interval=8)
        outcome = assemble_wafer(small_cfg, policy, rng=0, tile_fail_probability=0.0)
        assert outcome.completed
        assert outcome.kgd_wasted == 0
        assert outcome.faults_found == 0

    def test_hopeless_bonding_aborts_early(self, small_cfg):
        policy = AssemblyPolicy(check_interval=4, fault_budget=2)
        outcome = assemble_wafer(small_cfg, policy, rng=0, tile_fail_probability=0.9)
        assert not outcome.completed
        assert outcome.tiles_bonded < small_cfg.tiles

    def test_never_checking_wastes_most(self):
        cfg = SystemConfig()
        never = evaluate_policy(
            cfg, AssemblyPolicy(check_interval=0, fault_budget=8),
            trials=40, seed=3, tile_fail_probability=0.02,
        )
        often = evaluate_policy(
            cfg, AssemblyPolicy(check_interval=32, fault_budget=8),
            trials=40, seed=3, tile_fail_probability=0.02,
        )
        assert often.mean_kgd_wasted < never.mean_kgd_wasted
        assert often.mean_checks > never.mean_checks

    def test_sweep_shapes(self):
        cfg = SystemConfig()
        evaluations = sweep_check_intervals(
            cfg, [0, 64, 512], trials=30, seed=1,
            tile_fail_probability=0.02, fault_budget=8,
        )
        wasted = [e.mean_kgd_wasted for e in evaluations if e.policy.check_interval]
        assert wasted == sorted(wasted)     # more frequent checks waste less

    def test_completion_rate_policy_independent(self):
        # Checking frequency changes wastage, not which wafers are good.
        cfg = SystemConfig()
        a = evaluate_policy(
            cfg, AssemblyPolicy(check_interval=0), trials=50, seed=7,
            tile_fail_probability=0.005,
        )
        b = evaluate_policy(
            cfg, AssemblyPolicy(check_interval=128), trials=50, seed=7,
            tile_fail_probability=0.005,
        )
        assert a.completion_rate == pytest.approx(b.completion_rate, abs=1e-9)

    def test_invalid_policy(self):
        with pytest.raises(JtagError):
            AssemblyPolicy(check_interval=-1)
        with pytest.raises(JtagError):
            AssemblyPolicy(check_interval=1, fault_budget=-1)

    def test_default_failure_rate_is_the_section5_bond_yield(self):
        cfg = SystemConfig(rows=8, cols=8, pillars_per_pad=1)
        y_compute = chiplet_bond_yield(
            cfg.ios_per_compute_chiplet, cfg.pillar_bond_yield, 1
        )
        y_memory = chiplet_bond_yield(
            cfg.ios_per_memory_chiplet, cfg.pillar_bond_yield, 1
        )
        p_fail = 1.0 - y_compute * y_memory
        # Single-pillar pads: roughly one tile in four fails to bond.
        assert 0.2 < p_fail < 0.4
        policy = AssemblyPolicy(check_interval=8)
        for seed in range(3):
            assert assemble_wafer(cfg, policy, rng=seed) == assemble_wafer(
                cfg, policy, rng=seed, tile_fail_probability=p_fail
            )

    def test_invalid_probability(self, small_cfg):
        with pytest.raises(JtagError):
            assemble_wafer(
                small_cfg, AssemblyPolicy(check_interval=1),
                tile_fail_probability=2.0,
            )


class TestLots:
    def test_dual_pillar_lot_sells_everything(self, paper_cfg):
        lots = pillar_redundancy_lot_comparison(paper_cfg, wafers=50)
        assert lots[2].sellable_fraction == 1.0
        assert lots[1].sellable_fraction == 0.0
        assert lots[1].mean_faults > 100 * max(lots[2].mean_faults, 0.001)

    def test_bins_partition_wafers(self, paper_cfg):
        report = simulate_lot(paper_cfg, wafers=30, tile_fail_probability=0.01)
        assert sum(report.bins.values()) == 30

    def test_bin_policy(self):
        policy = BinPolicy(full_spec_max_faults=2, degraded_max_faults=10)
        assert policy.bin_of(0) == "full-spec"
        assert policy.bin_of(5) == "degraded"
        assert policy.bin_of(50) == "scrap"

    def test_bad_policy(self):
        with pytest.raises(ConfigError):
            BinPolicy(full_spec_max_faults=10, degraded_max_faults=5)

    @pytest.mark.parametrize(
        "call",
        [
            lambda cfg: BinPolicy(full_spec_max_faults=-1),
            lambda cfg: simulate_lot(cfg, wafers=2, tile_fail_probability=1.5),
            lambda cfg: simulate_lot(cfg, wafers=2, tile_fail_probability=-0.1),
        ],
        ids=["negative-full-spec", "probability-above-1", "probability-below-0"],
    )
    def test_malformed_lot_inputs_rejected(self, small_cfg, call):
        with pytest.raises(ConfigError):
            call(small_cfg)

    def test_sellable_tiles_bounded(self, paper_cfg):
        report = simulate_lot(paper_cfg, wafers=10, tile_fail_probability=0.01)
        assert report.sellable_tiles <= 10 * paper_cfg.tiles

    def test_empty_lot_rejected(self, paper_cfg):
        with pytest.raises(ConfigError):
            simulate_lot(paper_cfg, wafers=0)


class TestRemap:
    def test_clean_map_full_array(self, small_cfg):
        grid = largest_fault_free_rectangle(FaultMap(small_cfg))
        assert (grid.rows, grid.cols) == (8, 8)
        assert grid.contiguous

    def test_rectangle_avoids_faults(self, small_cfg):
        for seed in range(8):
            fmap = random_fault_map(small_cfg, 6, rng=seed)
            grid = largest_fault_free_rectangle(fmap)
            assert all(not fmap.is_faulty(t) for t in grid.all_physical())
            assert grid.contiguous

    def test_deletion_avoids_faults(self, small_cfg):
        for seed in range(8):
            fmap = random_fault_map(small_cfg, 6, rng=seed)
            grid = row_column_deletion(fmap)
            assert all(not fmap.is_faulty(t) for t in grid.all_physical())

    def test_rectangle_is_maximal_vs_bruteforce(self):
        cfg = SystemConfig(rows=6, cols=6)
        for seed in range(6):
            fmap = random_fault_map(cfg, 5, rng=seed)
            healthy = ~fmap.as_bool_array()
            best = 0
            for r0 in range(6):
                for c0 in range(6):
                    for r1 in range(r0, 6):
                        for c1 in range(c0, 6):
                            if healthy[r0 : r1 + 1, c0 : c1 + 1].all():
                                best = max(best, (r1 - r0 + 1) * (c1 - c0 + 1))
            grid = largest_fault_free_rectangle(fmap)
            assert grid.tiles == best

    def test_single_fault_center(self):
        cfg = SystemConfig(rows=5, cols=5)
        fmap = FaultMap(cfg, frozenset({(2, 2)}))
        rect = largest_fault_free_rectangle(fmap)
        assert rect.tiles == 10     # 5x2 or 2x5
        deletion = row_column_deletion(fmap)
        assert deletion.tiles == 20     # drop one row or column

    def test_logical_physical_mapping(self, small_cfg):
        fmap = FaultMap(small_cfg, frozenset({(0, 0)}))
        grid = row_column_deletion(fmap)
        phys = grid.physical((0, 0))
        assert not fmap.is_faulty(phys)
        with pytest.raises(FaultMapError):
            grid.physical((grid.rows, 0))

    def test_all_faulty_raises(self):
        cfg = SystemConfig(rows=2, cols=2)
        fmap = FaultMap(cfg, frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}))
        with pytest.raises(FaultMapError):
            largest_fault_free_rectangle(fmap)

    def test_deletion_that_empties_the_array_raises(self):
        cfg = SystemConfig(rows=2, cols=2)
        # A diagonal: each deletion leaves one fault in the last row.
        fmap = FaultMap(cfg, frozenset({(0, 0), (1, 1)}))
        with pytest.raises(FaultMapError, match="whole array"):
            row_column_deletion(fmap)

    def test_best_grid_picks_larger(self, small_cfg):
        fmap = random_fault_map(small_cfg, 5, rng=0)
        rect = largest_fault_free_rectangle(fmap)
        deletion = row_column_deletion(fmap)
        best = best_logical_grid(fmap)
        assert best.tiles == max(rect.tiles, deletion.tiles)
        contiguous = best_logical_grid(fmap, require_contiguous=True)
        assert contiguous.contiguous

    def test_stencil_runs_on_remapped_faulty_wafer(self):
        """The integration payoff: a grid-pinned workload survives faults
        by running on the extracted logical grid."""
        from repro.arch.system import WaferscaleSystem
        from repro.workloads.stencil import DistributedStencil, reference_jacobi

        cfg = SystemConfig(rows=6, cols=6)
        fmap = random_fault_map(cfg, 4, rng=11)
        grid = best_logical_grid(fmap, require_contiguous=True)
        logical_cfg = logical_system_config(grid, cfg)
        system = WaferscaleSystem(logical_cfg)

        field = np.zeros((grid.rows * 4, grid.cols * 4))
        field[0, :] = 100.0
        result = DistributedStencil(system, field).run(iterations=8)
        np.testing.assert_allclose(result.field, reference_jacobi(field, 8))

    @given(seed=seeds(), faults=fault_counts())
    @settings(max_examples=25, deadline=None)
    def test_remap_properties(self, seed, faults):
        cfg = SystemConfig(rows=8, cols=8)
        fmap = random_fault_map(cfg, faults, rng=seed)
        if fmap.healthy_count == 0:
            return
        rect = largest_fault_free_rectangle(fmap)
        assert 1 <= rect.tiles <= fmap.healthy_count
        assert all(not fmap.is_faulty(t) for t in rect.all_physical())
