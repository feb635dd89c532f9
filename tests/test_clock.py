"""Tests for repro.clock (PLL, passive CDN, forwarding, DCD, resiliency)."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clock.dcd import DccUnit, DutyCycleTracker, tiles_until_clock_dies
from repro.clock.forwarding import (
    ClockSource,
    render_forwarding_map,
    simulate_clock_setup,
)
from repro.clock.passive_cdn import (
    PassiveCdnModel,
    build_waferscale_cdn,
    passive_cdn_is_viable,
)
from repro.clock.pll import PllModel
from repro.clock import resiliency
from repro.clock.resiliency import (
    ClockCoverageStats,
    _clocked_tiles,
    _coverage_trial,
    clock_coverage_theorem_holds,
    fig4_fault_map,
    isolated_tiles,
    monte_carlo_clock_coverage,
    unreachable_tiles,
)
from repro.config import SystemConfig
from repro.engine import spawn_trial_seeds
from repro.errors import ClockError


class TestPll:
    def test_reference_range(self):
        pll = PllModel()
        assert pll.ref_in_range(10e6)
        assert pll.ref_in_range(133e6)
        assert not pll.ref_in_range(5e6)
        assert not pll.ref_in_range(200e6)

    def test_output_multiplication(self):
        assert PllModel().output_hz(50e6, 7) == pytest.approx(350e6)

    def test_output_cap_enforced(self):
        with pytest.raises(ClockError):
            PllModel().output_hz(133e6, 4)      # 532MHz > 400MHz

    def test_max_multiplier(self):
        assert PllModel().max_multiplier(100e6) == 4
        assert PllModel().max_multiplier(133e6) == 3

    def test_noisy_supply_blocks_lock(self):
        pll = PllModel()
        assert pll.can_lock(50e6, supply_ripple_v=0.01)
        assert not pll.can_lock(50e6, supply_ripple_v=0.2)
        with pytest.raises(ClockError):
            pll.output_hz(50e6, 4, supply_ripple_v=0.2)

    def test_interior_tile_cannot_generate(self):
        # Interior regulation wanders the full 1.0-1.2V band: 200mV ripple.
        assert not PllModel().can_lock(100e6, supply_ripple_v=0.2)

    def test_bad_multiplier(self):
        with pytest.raises(ClockError):
            PllModel().output_hz(50e6, 0)


class TestPassiveCdn:
    def test_waferscale_parasitics_exceed_paper_bounds(self, paper_cfg):
        model = build_waferscale_cdn(paper_cfg)
        assert model.capacitance_f > 450e-12
        assert model.inductance_h > 120e-9

    def test_sub_mhz_only(self, paper_cfg):
        model = build_waferscale_cdn(paper_cfg)
        assert model.max_frequency_hz < 1e6 * 50   # far below PLL needs

    def test_not_viable_for_pll_reference(self, paper_cfg):
        assert not passive_cdn_is_viable(paper_cfg, required_hz=10e6)

    def test_small_tree_is_viable(self):
        model = PassiveCdnModel(total_wire_mm=10.0, sink_count=4)
        assert model.max_frequency_hz > 10e6

    def test_invalid_models(self):
        with pytest.raises(ClockError):
            PassiveCdnModel(total_wire_mm=0, sink_count=1)
        with pytest.raises(ClockError):
            PassiveCdnModel(total_wire_mm=10, sink_count=0)


class TestDcd:
    def test_paper_example_5pct_kills_in_10_tiles(self):
        assert tiles_until_clock_dies(0.05) == 10

    def test_negative_distortion_symmetric(self):
        assert tiles_until_clock_dies(-0.05) == 10

    def test_zero_distortion_rejected(self):
        with pytest.raises(ClockError):
            tiles_until_clock_dies(0.0)

    def test_uninverted_chain_dies(self):
        tracker = DutyCycleTracker(dcd_per_tile=0.05, invert_per_hop=False)
        trace = tracker.run(64)
        assert len(trace) < 64
        assert not tracker.alive

    def test_inverted_chain_survives_any_length(self):
        tracker = DutyCycleTracker(dcd_per_tile=0.05, invert_per_hop=True)
        trace = tracker.run(200)
        assert len(trace) == 200
        assert tracker.alive
        assert abs(tracker.duty - 0.5) <= 0.05 + 1e-9

    def test_inversion_bounds_error_to_one_hop(self):
        tracker = DutyCycleTracker(dcd_per_tile=0.03, invert_per_hop=True)
        for duty in tracker.run(100):
            assert abs(duty - 0.5) <= 0.03 + 1e-9

    def test_dcc_corrects_within_range(self):
        dcc = DccUnit(correction_range=0.15, resolution=0.01)
        assert abs(dcc.correct(0.6) - 0.5) <= 0.01 + 1e-12

    def test_dcc_partial_beyond_range(self):
        dcc = DccUnit(correction_range=0.1, resolution=0.01)
        corrected = dcc.correct(0.75)
        assert corrected == pytest.approx(0.65)

    def test_dcc_leaves_small_errors(self):
        dcc = DccUnit(resolution=0.02)
        assert dcc.correct(0.51) == pytest.approx(0.51)

    def test_dcc_dead_clock_rejected(self):
        with pytest.raises(ClockError):
            DccUnit().correct(1.0)

    def test_dcc_rescues_uninverted_chain(self):
        tracker = DutyCycleTracker(
            dcd_per_tile=0.05, invert_per_hop=False, dcc=DccUnit()
        )
        trace = tracker.run(100)
        assert len(trace) == 100
        assert tracker.alive

    def test_forwarding_dead_clock_raises(self):
        tracker = DutyCycleTracker(dcd_per_tile=0.3, invert_per_hop=False)
        tracker.run(10)
        with pytest.raises(ClockError):
            tracker.hop()

    @given(dcd=st.floats(0.001, 0.2))
    @settings(max_examples=25)
    def test_kill_distance_formula(self, dcd):
        hops = tiles_until_clock_dies(dcd)
        assert hops == math.ceil(0.5 / dcd)


class TestForwarding:
    def test_clean_wafer_full_coverage(self, small_cfg):
        result = simulate_clock_setup(small_cfg)
        assert result.coverage == 1.0
        assert not result.unclocked_tiles

    def test_generator_is_generated_source(self, small_cfg):
        result = simulate_clock_setup(small_cfg, generators=[(0, 0)])
        assert result.states[(0, 0)].source is ClockSource.GENERATED
        assert result.states[(0, 1)].source is ClockSource.FORWARDED

    def test_hops_equal_manhattan_on_clean_grid(self, small_cfg):
        result = simulate_clock_setup(small_cfg, generators=[(0, 0)])
        for (r, c), state in result.states.items():
            assert state.hops_from_generator == r + c

    def test_inversion_parity_tracks_hops(self, small_cfg):
        result = simulate_clock_setup(small_cfg, generators=[(0, 0)])
        for state in result.states.values():
            assert state.inverted == (state.hops_from_generator % 2 == 1)

    def test_interior_generator_rejected(self, small_cfg):
        with pytest.raises(ClockError):
            simulate_clock_setup(small_cfg, generators=[(4, 4)])

    def test_faulty_generator_rejected(self, small_cfg):
        with pytest.raises(ClockError):
            simulate_clock_setup(
                small_cfg, generators=[(0, 0)], faulty={(0, 0)}
            )

    def test_fig4_exactly_one_unreachable(self):
        config, generators, faulty = fig4_fault_map()
        result = simulate_clock_setup(config, generators=generators, faulty=faulty)
        assert result.unclocked_tiles == [(3, 3)]

    def test_fig4_tile3_clocked_through_single_neighbor(self):
        config, generators, faulty = fig4_fault_map()
        result = simulate_clock_setup(config, generators=generators, faulty=faulty)
        # (5, 6) has three faulty-ish surroundings but one healthy feed.
        assert result.states[(5, 6)].has_fast_clock

    def test_fig4_render(self):
        config, generators, faulty = fig4_fault_map()
        result = simulate_clock_setup(config, generators=generators, faulty=faulty)
        art = render_forwarding_map(result)
        assert art.count("#") == 6
        assert art.count("X") == 1
        assert art.count("G") == 1

    def test_multiple_generators_reduce_depth(self, small_cfg):
        one = simulate_clock_setup(small_cfg, generators=[(0, 0)])
        two = simulate_clock_setup(small_cfg, generators=[(0, 0), (7, 7)])
        assert two.max_hops < one.max_hops

    def test_setup_time_scales_with_depth(self, small_cfg):
        result = simulate_clock_setup(small_cfg, generators=[(0, 0)])
        expected = result.max_hops * small_cfg.toggle_count / result.clock_hz
        assert result.setup_time_s() == pytest.approx(expected)

    def test_duty_at_depth_all_alive_with_inversion(self, small_cfg):
        result = simulate_clock_setup(small_cfg, generators=[(0, 0)])
        duties = result.duty_at_depth()
        assert all(not math.isnan(d) for d in duties.values())


class TestResiliency:
    def test_unreachable_requires_surrounded_tile(self, small_cfg):
        faulty = {(2, 3), (4, 3), (3, 2), (3, 4)}
        assert unreachable_tiles(small_cfg, faulty) == {(3, 3)}

    def test_isolated_tiles_detection(self, small_cfg):
        faulty = {(2, 3), (4, 3), (3, 2), (3, 4)}
        assert isolated_tiles(small_cfg, faulty) == {(3, 3)}

    def test_theorem_on_fig4(self):
        config, generators, faulty = fig4_fault_map()
        assert clock_coverage_theorem_holds(config, faulty, generators)

    @given(
        fault_seed=st.integers(0, 2**31 - 1),
        fault_count=st.integers(0, 12),
    )
    @settings(max_examples=30, deadline=None)
    def test_theorem_on_random_maps(self, fault_seed, fault_count):
        """The paper's induction claim, machine-checked on random maps."""
        import numpy as np

        config = SystemConfig(rows=8, cols=8)
        rng = np.random.default_rng(fault_seed)
        coords = [
            c for c in config.tile_coords() if c != (0, 0)
        ]
        idx = rng.choice(len(coords), size=fault_count, replace=False)
        faulty = {coords[i] for i in idx}
        assert clock_coverage_theorem_holds(config, faulty, [(0, 0)])

    def test_monte_carlo_coverage_degrades_gracefully(self, small_cfg):
        stats = monte_carlo_clock_coverage(
            small_cfg, fault_counts=[0, 4, 8], trials=20, seed=3
        )
        assert stats[0].mean_coverage == 1.0
        assert stats[-1].mean_coverage > 0.9   # still near-full coverage
        assert stats[0].mean_unreachable <= stats[-1].mean_unreachable + 1e-9

    def test_cannot_fault_everything(self, small_cfg):
        with pytest.raises(ClockError):
            monte_carlo_clock_coverage(small_cfg, [64], trials=1)


def _kernel_clocked(config, generators, faulty):
    """The component kernel's clocked set, as coordinates."""
    healthy = np.ones(config.tiles, dtype=bool)
    healthy[[r * config.cols + c for r, c in faulty]] = False
    flat = [r * config.cols + c for r, c in generators]
    reached = _clocked_tiles(config, healthy, flat)
    return {divmod(int(i), config.cols) for i in reached}


def _oracle_coverage(config, fault_counts, trials, seed):
    """Monte Carlo stats recomputed trial by trial with the forwarding sim.

    Trial ``i`` of fault count ``k`` redraws its map from the ``i``-th
    child of ``SeedSequence((seed, k))``, as the engine does; the default
    generator of :func:`simulate_clock_setup` is the first healthy edge
    tile, and a map without one (``ClockError``) is skipped.
    """
    coords = list(config.tile_coords())
    out = []
    for count in fault_counts:
        outcomes = []
        for child in spawn_trial_seeds((seed, count), trials):
            rng = np.random.default_rng(child)
            idx = rng.choice(config.tiles, size=count, replace=False)
            try:
                result = simulate_clock_setup(config, faulty={coords[i] for i in idx})
            except ClockError:
                continue
            outcomes.append((result.coverage, len(result.unclocked_tiles)))
        covs = [c for c, _ in outcomes]
        out.append(
            ClockCoverageStats(
                fault_count=count,
                trials=len(outcomes),
                mean_coverage=float(np.mean(covs)) if covs else 0.0,
                min_coverage=float(np.min(covs)) if covs else 0.0,
                mean_unreachable=float(np.mean([u for _, u in outcomes]))
                if outcomes else 0.0,
            )
        )
    return out


def _random_cases():
    """Seeded random 32x32 maps, generator = first healthy edge tile."""
    config = SystemConfig(rows=32, cols=32)
    coords = list(config.tile_coords())
    cases = []
    for seed in range(8):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 400))
        faulty = {coords[i] for i in rng.choice(config.tiles, size=count, replace=False)}
        gen = next(c for c in coords if config.is_edge_tile(c) and c not in faulty)
        cases.append(pytest.param(32, 32, [gen], faulty, id=f"random-32x32-s{seed}"))
    return cases


_FIG4_CFG, _FIG4_GENS, _FIG4_FAULTY = fig4_fault_map()

_KERNEL_CASES = [
    pytest.param(8, 8, [(0, 0)], set(), id="clean"),
    pytest.param(8, 8, _FIG4_GENS, _FIG4_FAULTY, id="fig4"),
    pytest.param(8, 8, [(0, 3)], {(0, 2), (0, 4), (1, 3)}, id="generator-walled-in"),
    pytest.param(
        4, 4, [(0, 0)], {(r, c) for r in range(4) for c in range(4)} - {(0, 0)},
        id="all-faulty-but-generator",
    ),
    pytest.param(1, 1, [(0, 0)], set(), id="1x1"),
    pytest.param(1, 6, [(0, 0)], {(0, 3)}, id="1xN"),
    pytest.param(2, 2, [(0, 0)], {(1, 1)}, id="2x2"),
    pytest.param(
        6, 6, [(0, 0), (0, 5)], {(r, 2) for r in range(6)} | {(r, 4) for r in range(6)},
        id="two-generators-disconnected",
    ),
    *_random_cases(),
]


class TestCoverageKernel:
    """The component kernel against the forwarding-simulation oracle."""

    @pytest.mark.parametrize("rows, cols, generators, faulty", _KERNEL_CASES)
    def test_kernel_matches_oracle(self, rows, cols, generators, faulty):
        config = SystemConfig(rows=rows, cols=cols)
        result = simulate_clock_setup(config, generators=generators, faulty=faulty)
        oracle = {c for c, s in result.states.items() if s.has_fast_clock}
        kernel = _kernel_clocked(config, generators, faulty)
        assert len(kernel) == len(oracle)
        assert kernel == oracle
        assert clock_coverage_theorem_holds(config, faulty, generators)

    def test_case_table_shapes(self):
        # The named cases exercise what they claim to.
        cfg = SystemConfig(rows=8, cols=8)
        assert _kernel_clocked(cfg, [(0, 3)], {(0, 2), (0, 4), (1, 3)}) == {(0, 3)}
        cfg = SystemConfig(rows=6, cols=6)
        walls = {(r, 2) for r in range(6)} | {(r, 4) for r in range(6)}
        clocked = _kernel_clocked(cfg, [(0, 0), (0, 5)], walls)
        assert len(clocked) == 18                     # columns 0, 1 and 5
        assert not any(c == 3 for _, c in clocked)    # the walled-off column

    def test_no_healthy_edge_tile_returns_none(self):
        config = SystemConfig(rows=3, cols=3)
        edge = [i for i in range(9) if i != 4]        # every tile but the centre
        ctx = SimpleNamespace(
            config=config,
            params={"fault_count": 8},
            rng=SimpleNamespace(choice=lambda n, size, replace: np.array(edge)),
        )
        assert _coverage_trial(ctx) is None
        with pytest.raises(ClockError, match="no healthy edge tile"):
            simulate_clock_setup(config, faulty={divmod(i, 3) for i in edge})

    @pytest.mark.parametrize("workers", [1, 2])
    def test_monte_carlo_matches_trial_recompute(self, workers):
        config = SystemConfig(rows=8, cols=8)
        counts = [0, 6, 30, 60]
        stats = monte_carlo_clock_coverage(
            config, counts, trials=12, seed=5, workers=workers
        )
        assert stats == _oracle_coverage(config, counts, 12, 5)
        assert stats[-1].trials < 12                  # some maps had no generator

    def test_monte_carlo_never_runs_forwarding_sim(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("Monte Carlo ran the per-tile forwarding sim")

        monkeypatch.setattr(resiliency, "simulate_clock_setup", forbidden)
        stats = monte_carlo_clock_coverage(
            SystemConfig(rows=8, cols=8), [0, 4, 12], trials=10, seed=2
        )
        assert [s.trials for s in stats] == [10, 10, 10]

    def test_negative_fault_count_rejected(self, small_cfg):
        with pytest.raises(ClockError, match=r"fault_counts: -1 "):
            monte_carlo_clock_coverage(small_cfg, [-1], trials=1)

    def test_fractional_fault_count_rejected(self, small_cfg):
        with pytest.raises(ClockError, match=r"fault_counts: 2\.5 "):
            monte_carlo_clock_coverage(small_cfg, [2.5], trials=1)


class TestGeneratorPlacement:
    def test_mid_edge_beats_corner(self, paper_cfg):
        from repro.clock.placement import best_single_generator, max_depth

        tile, depth = best_single_generator(paper_cfg)
        corner_depth = max_depth(paper_cfg, [(0, 0)])
        assert depth < corner_depth
        assert corner_depth == 62
        # Mid-edge generator: depth ~ rows/2 + cols - 1 = 47 on 32x32.
        assert depth == 47

    def test_more_generators_shallower(self, paper_cfg):
        from repro.clock.placement import depth_report

        series = depth_report(paper_cfg, [1, 2, 4])
        depths = [d for _, d in series]
        assert depths[0] > depths[1] > depths[2]

    def test_depths_match_forwarding_sim(self, small_cfg):
        from repro.clock.placement import forwarding_depths

        depths = forwarding_depths(small_cfg, [(0, 0)])
        result = simulate_clock_setup(small_cfg, generators=[(0, 0)])
        for coord, state in result.states.items():
            assert depths[coord] == state.hops_from_generator

    def test_faulty_generators_rejected(self, small_cfg):
        from repro.clock.placement import best_single_generator, forwarding_depths
        from repro.errors import ClockError

        with pytest.raises(ClockError):
            forwarding_depths(small_cfg, [(0, 0)], faulty={(0, 0)})
        # Whole edge faulty:
        edge = {c for c in small_cfg.tile_coords() if small_cfg.is_edge_tile(c)}
        with pytest.raises(ClockError):
            best_single_generator(small_cfg, faulty=edge)

    def test_placement_respects_faults(self, small_cfg):
        from repro.clock.placement import forwarding_depths

        faulty = {(1, 0), (0, 1)}   # isolate the corner
        depths = forwarding_depths(small_cfg, [(4, 0)], faulty=faulty)
        assert (0, 0) not in depths
