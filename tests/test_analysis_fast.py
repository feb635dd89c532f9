"""Differential tests for the fast analytic kernels.

Every fast path in the analysis layer is checked against a simple
oracle — the per-fault connectivity loop, the fresh-``spsolve``-per-call
PDN solve, the per-flow emulator routing — and these tests prove the
fast results identical to it: randomized and adversarial fault maps for
connectivity, both load models for the PDN (at 1e-12), and
field-for-field emulation stats for the vector engine's route tables.
"""

import numpy as np
import pytest

from repro.arch.emulator import Emulator, clear_route_cache
from repro.arch.system import WaferscaleSystem
from repro.config import SystemConfig
from repro.errors import NetworkError
from repro.engine import (
    CIStop,
    ExperimentEngine,
    ResultCache,
    cache_key,
    spawn_trial_seeds,
)
from repro.noc.connectivity import (
    _pair_blockage_reference,
    _pair_blockage_sparse,
    _same_row_col_share_reference,
    disconnected_fraction,
    monte_carlo_disconnection,
    same_row_col_share,
)
from repro.noc.faults import FaultMap, random_fault_map
from repro.obs.telemetry import Telemetry, use_telemetry
from repro.pdn.solver import PdnSolution, PdnSolver
from repro.workloads.bfs import DistributedBfs


def _random_maps(cfg, fault_counts, seed=0):
    rng = np.random.default_rng(seed)
    return [
        random_fault_map(cfg, count, rng)
        for count in fault_counts
        for _ in range(3)
    ]


# ---------------------------------------------------------------------------
# connectivity: factorized sparse kernel vs the reference loop
# ---------------------------------------------------------------------------

SMALL = SystemConfig(rows=8, cols=8)
PAPER = SystemConfig()
NON_SQUARE = SystemConfig(rows=6, cols=5)


def _all_but(cfg, healthy):
    return FaultMap(
        cfg, frozenset(c for c in cfg.tile_coords() if c not in healthy)
    )


# name -> factory for the fault maps the kernel must match the oracle on.
ORACLE_CASES = {
    "randomized": lambda: _random_maps(SMALL, (0, 1, 2, 5, 12), seed=3),
    "randomized-dense": lambda: _random_maps(
        SMALL, (0, 1, 2, 5, 12, 30), seed=8
    ),
    "paper-scale-2-10": lambda: _random_maps(PAPER, (2, 10), seed=4),
    "paper-scale-5-40": lambda: _random_maps(PAPER, (5, 40), seed=9),
    "non-square": lambda: _random_maps(NON_SQUARE, (0, 1, 4, 9), seed=5),
    "non-square-sparse": lambda: _random_maps(NON_SQUARE, (0, 3, 9), seed=10),
    "row-only": lambda: [
        FaultMap(SMALL, frozenset((3, c) for c in range(1, 7)))
    ],
    "column-only": lambda: [
        FaultMap(SMALL, frozenset((r, 5) for r in range(0, 8, 2)))
    ],
    "near-fully-faulty": lambda: [_all_but(SMALL, {(0, 0), (7, 7), (3, 4)})],
    "single-row-wafer": lambda: _random_maps(
        SystemConfig(rows=1, cols=8), (0, 1, 3), seed=11
    ),
    "single-column-wafer": lambda: _random_maps(
        SystemConfig(rows=8, cols=1), (0, 1, 3), seed=12
    ),
    "two-by-two": lambda: _random_maps(
        SystemConfig(rows=2, cols=2), (0, 1, 2), seed=13
    ),
    "tall-non-square": lambda: _random_maps(
        SystemConfig(rows=9, cols=4), (1, 6, 20), seed=14
    ),
}

# Cases small enough for the per-pair path-walk oracle of same_row_col_share.
SHARE_CASES = sorted(
    name for name in ORACLE_CASES if not name.startswith("paper-scale")
)


def _transformed(fmap, transform):
    """``fmap`` under one symmetry of the rectangle (a D4 element)."""
    rows, cols = fmap.config.rows, fmap.config.cols
    swaps, mapping = {
        "flip-columns": (False, lambda r, c: (r, cols - 1 - c)),
        "flip-rows": (False, lambda r, c: (rows - 1 - r, c)),
        "rotate-180": (False, lambda r, c: (rows - 1 - r, cols - 1 - c)),
        "transpose": (True, lambda r, c: (c, r)),
        "anti-transpose": (True, lambda r, c: (cols - 1 - c, rows - 1 - r)),
        "rotate-90": (True, lambda r, c: (c, rows - 1 - r)),
        "rotate-270": (True, lambda r, c: (cols - 1 - c, r)),
    }[transform]
    cfg = SystemConfig(rows=cols, cols=rows) if swaps else fmap.config
    return FaultMap(cfg, frozenset(mapping(r, c) for r, c in fmap.faulty))


class TestConnectivityDifferential:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_kernel_matches_oracle(self, case):
        for fmap in ORACLE_CASES[case]():
            assert _pair_blockage_sparse(fmap) == _pair_blockage_reference(fmap)

    @pytest.mark.parametrize(
        "kernel", [_pair_blockage_sparse, _pair_blockage_reference]
    )
    def test_degenerate_map_raises(self, small_cfg, kernel):
        fmap = _all_but(small_cfg, {(0, 0)})
        with pytest.raises(NetworkError, match="two healthy"):
            kernel(fmap)

    def test_kernel_matches_oracle_on_drawn_maps(self):
        from hypothesis import given, settings, strategies as st

        from repro.verify import strategies as vs

        @given(data=st.data())
        @settings(max_examples=40, deadline=None, database=None, derandomize=True)
        def check(data):
            cfg = data.draw(vs.system_configs(min_side=1, max_side=9))
            fmap = data.draw(vs.fault_maps(cfg, max_faults=cfg.tiles))
            if fmap.healthy_count < 2:
                for kernel in (_pair_blockage_sparse, _pair_blockage_reference):
                    with pytest.raises(NetworkError, match="two healthy"):
                        kernel(fmap)
                return
            assert _pair_blockage_sparse(fmap) == _pair_blockage_reference(fmap)

        check()

    @pytest.mark.parametrize(
        "transform",
        [
            "flip-columns",
            "flip-rows",
            "rotate-180",
            "transpose",
            "anti-transpose",
            "rotate-90",
            "rotate-270",
        ],
    )
    def test_fractions_invariant_under_wafer_symmetry(self, transform):
        # Mirroring or rotating the wafer maps every L-shaped path onto an
        # L-shaped path (transposes swap X-Y with Y-X, which is the
        # transpose of the pair matrix), so every count is unchanged.
        for fmap in _random_maps(NON_SQUARE, (1, 4, 9), seed=15):
            moved = _transformed(fmap, transform)
            assert moved.fault_count == fmap.fault_count
            assert disconnected_fraction(moved) == disconnected_fraction(fmap)

    @pytest.mark.parametrize("case", SHARE_CASES)
    def test_same_row_col_share_matches_reference(self, case):
        for fmap in ORACLE_CASES[case]():
            fast = same_row_col_share(fmap)
            ref = _same_row_col_share_reference(fmap)
            assert fast == pytest.approx(ref, abs=1e-12)


class TestMonteCarloFastPath:
    @pytest.mark.parametrize(
        "dispatch",
        [
            {"workers": 1},
            {"workers": 3},
            {"engine": ExperimentEngine(workers=2, chunk_size=7)},
        ],
        ids=["workers-1", "workers-3", "explicit-executor"],
    )
    def test_statistics_match_oracle_replay(self, small_cfg, dispatch):
        seed, trials = 9, 20
        stats = monte_carlo_disconnection(
            small_cfg, [2, 5], trials=trials, seed=seed, **dispatch
        )
        if "engine" in dispatch:
            # A caller's engine is never closed for it; this one lives in
            # the module-level parametrization, so release its pool here.
            dispatch["engine"].close()
        for count, got in zip((2, 5), stats):
            pairs = [
                _pair_blockage_reference(
                    random_fault_map(
                        small_cfg, count, np.random.default_rng(child)
                    )
                )
                for child in spawn_trial_seeds((seed, count), trials)
            ]
            singles = [p.single * 100.0 for p in pairs]
            duals = [p.dual * 100.0 for p in pairs]
            assert got.trials == trials
            assert got.mean_single_pct == float(np.mean(singles))
            assert got.mean_dual_pct == float(np.mean(duals))
            assert got.std_single_pct == float(np.std(singles))
            assert got.std_dual_pct == float(np.std(duals))

    def test_cache_identity_is_the_fault_count(self, small_cfg, tmp_path):
        # Entries recorded before the kernel consolidation stay valid: the
        # run is keyed by the fault count alone, not by any kernel choice.
        cache = ResultCache(tmp_path / "cache")
        monte_carlo_disconnection(small_cfg, [3], trials=4, seed=2, cache=cache)
        key = cache_key(
            "noc.fig6_disconnection", small_cfg, {"fault_count": 3}, (2, 3), 4
        )
        hit, values = cache.get(key)
        assert hit and len(values) == 4

    def test_degenerate_draw_names_trial_and_seed(self):
        cfg = SystemConfig(rows=1, cols=3)
        with pytest.raises(NetworkError) as excinfo:
            monte_carlo_disconnection(cfg, [2], trials=2, seed=11)
        message = str(excinfo.value)
        assert "degenerate fault map" in message
        assert "trial" in message
        assert "fault_count 2" in message
        assert "run seed (11, 2)" in message


class TestMonteCarloAdaptive:
    def test_stops_early_and_is_worker_invariant(self, small_cfg):
        rule = CIStop(rel_halfwidth=0.02, min_trials=16, block=8)
        kwargs = dict(fault_counts=[5], trials=400, seed=7, adaptive=rule)
        solo = monte_carlo_disconnection(small_cfg, **kwargs)
        assert solo[0].trials < 400
        pooled = monte_carlo_disconnection(small_cfg, workers=4, **kwargs)
        assert solo == pooled

    def test_adaptive_prefix_matches_fixed_run(self, small_cfg):
        rule = CIStop(rel_halfwidth=0.05, min_trials=16, block=8)
        adaptive = monte_carlo_disconnection(
            small_cfg, [5], trials=300, seed=3, adaptive=rule
        )
        fixed = monte_carlo_disconnection(
            small_cfg, [5], trials=adaptive[0].trials, seed=3
        )
        assert adaptive[0].mean_single_pct == fixed[0].mean_single_pct
        assert adaptive[0].mean_dual_pct == fixed[0].mean_dual_pct

    def test_adaptive_cap_is_respected(self, small_cfg):
        rule = CIStop(rel_halfwidth=1e-9, min_trials=4, block=4)
        out = monte_carlo_disconnection(
            small_cfg, [5], trials=12, seed=1, adaptive=rule
        )
        assert out[0].trials == 12


# ---------------------------------------------------------------------------
# PDN: factorization-cached solves vs fresh spsolve
# ---------------------------------------------------------------------------


class TestPdnDifferential:
    @pytest.mark.parametrize("load_model", ["ldo", "constant_power"])
    def test_factorized_matches_spsolve(self, small_cfg, load_model):
        reference = PdnSolver(small_cfg, engine="reference")
        fast = PdnSolver(small_cfg)
        for scale in (0.25, 1.0):
            power = scale * small_cfg.tile_peak_power_w
            ref_sol = reference.solve(power, load_model=load_model)
            fast_sol = fast.solve(power, load_model=load_model)
            assert np.allclose(ref_sol.voltages, fast_sol.voltages, atol=1e-12)
            assert np.allclose(ref_sol.currents, fast_sol.currents, atol=1e-12)
            assert ref_sol.iterations == fast_sol.iterations

    def test_factorization_telemetry_counters(self, small_cfg):
        tel = Telemetry()
        with use_telemetry(tel):
            solver = PdnSolver(small_cfg)
            for _ in range(3):
                solver.solve()
        assert tel.metrics.counter("pdn.factorizations").value == 1
        assert tel.metrics.counter("pdn.factorization_reuses").value == 2


class TestPdnSolutionPowerLoads:
    def _solution(self, small_cfg, power):
        shape = (small_cfg.rows, small_cfg.cols)
        return PdnSolution(
            config=small_cfg,
            voltages=np.full(shape, 2.0),
            currents=np.full(shape, 0.1),
            edge_voltage=2.5,
            iterations=1,
            converged=True,
            power_loads_w=power,
        )

    def test_none_power_map_is_safe(self, small_cfg):
        solution = self._solution(small_cfg, None)
        assert solution.power_loads_w is None
        assert solution.specified_power_w is None
        assert solution.delivery_efficiency is None

    def test_recorded_power_map_properties(self, small_cfg):
        power = np.full((small_cfg.rows, small_cfg.cols), 0.35)
        solution = self._solution(small_cfg, power)
        assert solution.specified_power_w == pytest.approx(power.sum())
        assert solution.delivery_efficiency == pytest.approx(
            power.sum() / solution.supply_power_w
        )

    def test_solver_records_power_map(self, small_cfg):
        solution = PdnSolver(small_cfg).solve()
        assert solution.power_loads_w is not None
        assert solution.delivery_efficiency is not None


# ---------------------------------------------------------------------------
# emulator: vector route tables vs per-flow assignment
# ---------------------------------------------------------------------------


def _detour_system():
    """A system whose fault layout forces software detours."""
    cfg = SystemConfig(rows=8, cols=8)
    fmap = FaultMap(cfg).with_fault((0, 4)).with_fault((4, 0))
    return WaferscaleSystem(cfg, fmap)


class TestEmulatorRouteCache:
    def _run_bfs(self, engine):
        import networkx as nx

        system = _detour_system()
        graph = nx.gnm_random_graph(80, 320, seed=2)
        return DistributedBfs(system, graph).run(0, engine=engine)

    def test_stats_identical_with_and_without_cache(self):
        clear_route_cache()
        reference = self._run_bfs(engine="reference")
        vector_cold = self._run_bfs(engine="vector")
        vector_warm = self._run_bfs(engine="vector")
        assert reference.distance == vector_cold.distance == vector_warm.distance
        for field in (
            "supersteps",
            "messages_sent",
            "message_hops",
            "detoured_messages",
            "local_compute_cycles",
            "network_cycles",
            "per_step_messages",
        ):
            assert (
                getattr(reference.stats, field)
                == getattr(vector_cold.stats, field)
                == getattr(vector_warm.stats, field)
            ), field
        assert reference.stats.detoured_messages > 0

    def test_cache_disabled_matches_legacy_error(self):
        cfg = SystemConfig(rows=2, cols=2)
        fmap = FaultMap(cfg).with_fault((0, 1)).with_fault((1, 0))
        system = WaferscaleSystem(cfg, fmap)
        emulator = Emulator(system, engine="reference")
        emulator.send((0, 0), (1, 1), "ping")
        with pytest.raises(NetworkError, match=r"no path for messages"):
            emulator.superstep(lambda tile, inbox, em: 0)
