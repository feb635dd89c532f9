"""Tests for repro.verify: checkers, golden models, campaigns, strategies.

Every shipped invariant checker gets at least one mutation-style test:
a healthy run passes, then a deliberately corrupted state/solution/plan
MUST trip the checker.  A checker whose mutation test cannot fail is a
checker that cannot catch bugs.
"""

import numpy as np
import pytest

from repro.arch.emulator import Emulator, clear_route_cache
from repro.arch.system import WaferscaleSystem
from repro.config import SystemConfig
from repro.dft.multichain import ChainPlan, MultiChainPlan, row_chains, single_chain
from repro.dft.unrolling import ChainTestSession, TileUnderTest, UnrollStep
from repro.engine.cache import ResultCache
from repro.engine.core import ExperimentEngine
from repro.errors import ReproError
from repro.noc.dualnetwork import NetworkId
from repro.noc.faults import FaultMap
from repro.noc.packets import Packet, PacketKind
from repro.noc.router import Port
from repro.noc.simulator import NocSimulator
from repro.pdn.solver import PdnSolver
from repro.verify import run_verify
from repro.verify.campaign import _verify_trial_value
from repro.verify.golden import (
    GoldenNocModel,
    golden_bfs,
    golden_pdn_solve,
    golden_sssp,
)
from repro.verify.invariants import (
    ChainIntegrityChecker,
    DeliveryChecker,
    DorLegalityChecker,
    DroopBoundChecker,
    FifoBoundChecker,
    FlitConservationChecker,
    InvariantViolation,
    KclResidualChecker,
    RoundRobinChecker,
    RouteCoherenceChecker,
    default_noc_checkers,
    full_noc_checkers,
)
from repro.workloads.graphs import random_graph
from repro.workloads.traffic import TrafficPattern, generate_traffic


def _run_checked_sim(engine="reference", checkers=None, faults=(), cycles=200):
    """A small checked simulation with mixed traffic; returns the sim."""
    cfg = SystemConfig(rows=6, cols=6)
    fmap = FaultMap(cfg)
    for coord in faults:
        fmap = fmap.with_fault(coord)
    sim = NocSimulator(
        cfg,
        fault_map=fmap,
        engine=engine,
        checkers=checkers if checkers is not None else full_noc_checkers(),
    )
    schedule = generate_traffic(cfg, TrafficPattern.UNIFORM, 0.02, 40, seed=7)
    nets = list(NetworkId)
    for i, (cycle, packet) in enumerate(schedule):
        while sim.cycle < cycle:
            sim.step()
        sim.inject(packet, nets[i % 2])
    sim.run(cycles)
    return sim


# ---------------------------------------------------------------------------
# NoC checkers: clean runs pass, corrupted state trips
# ---------------------------------------------------------------------------


class TestNocCheckersCleanRuns:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_full_checker_set_stays_silent(self, engine):
        sim = _run_checked_sim(engine=engine, faults=[(2, 2)])
        assert sim.report().flit_conservation_ok
        assert all(c.violations == 0 for c in sim.checkers)
        assert all(c.checks > 0 for c in sim.checkers)

    def test_default_set_is_cheap_subset(self):
        names = [type(c) for c in default_noc_checkers()]
        assert names == [FlitConservationChecker, DeliveryChecker]
        assert len(full_noc_checkers()) == 5


class TestFlitConservationMutation:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_desynced_in_flight_counter_trips(self, engine):
        sim = _run_checked_sim(engine=engine, checkers=[FlitConservationChecker()])
        sim._in_flight += 1                     # lose a packet on the books
        with pytest.raises(InvariantViolation, match="flit_conservation"):
            sim.step()

    def test_desynced_network_occupancy_trips(self):
        sim = _run_checked_sim(checkers=[FlitConservationChecker()])
        # Keep the global balance intact but skew the per-network split.
        sim._net_occupancy[NetworkId.XY] += 1
        with pytest.raises(InvariantViolation, match="per-network"):
            sim.step()


class TestDeliveryCheckerMutation:
    def _delivered_packet(self, sim, latency=4):
        packet = Packet(kind=PacketKind.REQUEST, src=(0, 0), dst=(2, 2))
        packet.injected_cycle = sim.cycle - latency
        packet.delivered_cycle = sim.cycle
        return packet

    def test_duplicate_delivery_trips(self):
        sim = NocSimulator(SystemConfig(rows=4, cols=4))
        sim.cycle = 10
        checker = DeliveryChecker()
        packet = self._delivered_packet(sim)
        checker.on_deliver(sim, packet, NetworkId.XY)
        with pytest.raises(InvariantViolation, match="delivered twice"):
            checker.on_deliver(sim, packet, NetworkId.XY)

    def test_sub_manhattan_latency_trips(self):
        sim = NocSimulator(SystemConfig(rows=4, cols=4))
        sim.cycle = 10
        checker = DeliveryChecker()
        packet = self._delivered_packet(sim, latency=3)     # distance is 4
        with pytest.raises(InvariantViolation, match="Manhattan"):
            checker.on_deliver(sim, packet, NetworkId.XY)

    def test_foreign_cycle_stamp_trips(self):
        sim = NocSimulator(SystemConfig(rows=4, cols=4))
        sim.cycle = 10
        checker = DeliveryChecker()
        packet = self._delivered_packet(sim)
        packet.delivered_cycle = 9
        with pytest.raises(InvariantViolation, match="foreign cycle"):
            checker.on_deliver(sim, packet, NetworkId.XY)


class TestDorLegalityMutation:
    def test_wrong_output_port_trips(self):
        sim = NocSimulator(SystemConfig(rows=4, cols=4))
        checker = DorLegalityChecker()
        packet = Packet(kind=PacketKind.REQUEST, src=(0, 0), dst=(3, 3))
        # At (0, 0) heading for (3, 3) on XY, the one legal port is East.
        east = list(Port).index(Port.EAST)
        checker.on_grant(sim, NetworkId.XY, (0, 0), east, 4, packet, 0)
        south = list(Port).index(Port.SOUTH)
        with pytest.raises(InvariantViolation, match="non-DoR"):
            checker.on_grant(sim, NetworkId.XY, (0, 0), south, 4, packet, 0)


class TestRoundRobinMutation:
    def test_stuck_pointer_trips(self):
        sim = NocSimulator(SystemConfig(rows=4, cols=4))
        checker = RoundRobinChecker()
        packet = Packet(kind=PacketKind.REQUEST, src=(0, 0), dst=(0, 3))
        checker.on_grant(sim, NetworkId.XY, (0, 1), 3, 2, packet, 3)  # (2+1)%5
        with pytest.raises(InvariantViolation, match="round-robin"):
            checker.on_grant(sim, NetworkId.XY, (0, 1), 3, 2, packet, 2)


class TestFifoBoundMutation:
    def test_overfilled_fifo_trips(self):
        checker = FifoBoundChecker()
        sim = NocSimulator(SystemConfig(rows=4, cols=4), checkers=[checker])
        fifo = sim.routers[NetworkId.XY][(1, 1)].inputs[Port.NORTH]
        for _ in range(sim.fifo_depth + 1):     # bypass accept()'s credit check
            fifo.queue.append(Packet(kind=PacketKind.REQUEST, src=(0, 1), dst=(3, 1)))
        sim._in_flight += sim.fifo_depth + 1
        sim.injected_count += sim.fifo_depth + 1
        with pytest.raises(InvariantViolation, match="exceeded its depth"):
            checker.on_step(sim)

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_buffered_total_disagreement_trips(self, engine):
        checker = FifoBoundChecker()
        sim = _run_checked_sim(engine=engine, checkers=[checker])
        sim._in_flight += 1                     # counter says one more than buffered
        sim.injected_count += 1
        with pytest.raises(InvariantViolation, match="in-flight counter"):
            checker.on_step(sim)


# ---------------------------------------------------------------------------
# Report accounting (drained packets attributed before telemetry)
# ---------------------------------------------------------------------------


class TestReportConservation:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_drained_run_balances_exactly(self, engine):
        sim = _run_checked_sim(engine=engine, faults=[(1, 1), (3, 4)], cycles=400)
        assert sim.idle()
        report = sim.report()
        assert report.in_flight == 0
        assert report.packets_unaccounted == 0
        assert report.flit_conservation_ok
        # Faults on the array make both drop categories reachable and the
        # report keeps them separate: in-flight drops count against
        # conservation, unreachable rejections never entered the network.
        assert report.injected == (
            report.delivered + report.dropped_in_flight + report.in_flight
        )

    def test_mid_run_report_accounts_for_in_flight(self):
        cfg = SystemConfig(rows=6, cols=6)
        sim = NocSimulator(cfg)
        schedule = generate_traffic(cfg, TrafficPattern.TRANSPOSE, 0.05, 20, seed=3)
        for _, packet in schedule:
            sim.inject(packet, NetworkId.XY)
        sim.run(3)                              # stop while traffic is in the mesh
        report = sim.report()
        assert report.in_flight > 0
        assert report.packets_unaccounted == 0
        assert report.flit_conservation_ok

    def test_engines_agree_on_new_fields(self):
        reports = []
        for engine in ("reference", "fast"):
            sim = _run_checked_sim(engine=engine, checkers=[], faults=[(2, 3)])
            reports.append(sim.report())
        ref, fast = reports
        assert ref.dropped_in_flight == fast.dropped_in_flight
        assert ref.in_flight == fast.in_flight
        assert ref == fast


# ---------------------------------------------------------------------------
# PDN checkers
# ---------------------------------------------------------------------------


class TestPdnCheckersMutation:
    def test_clean_solves_pass_both_checkers(self):
        kcl, droop = KclResidualChecker(), DroopBoundChecker()
        solver = PdnSolver(SystemConfig(rows=6, cols=6), checkers=[kcl, droop])
        solver.solve()
        solver.solve(load_model="constant_power")
        solver.solve_many([0.5, 1.0])
        assert kcl.checks == 4 and droop.checks == 4
        assert kcl.violations == 0 and droop.violations == 0

    def test_perturbed_voltage_trips_kcl(self):
        checker = KclResidualChecker()
        solver = PdnSolver(SystemConfig(rows=6, cols=6))
        solution = solver.solve()
        solution.voltages[2, 3] += 1e-3         # 1 mV defect on a mOhm mesh
        with pytest.raises(InvariantViolation, match="KCL residual"):
            checker.check_solution(solver, solution)

    def test_overshoot_above_supply_trips_droop_bound(self):
        checker = DroopBoundChecker()
        solver = PdnSolver(SystemConfig(rows=6, cols=6))
        solution = solver.solve()
        solution.voltages[0, 0] = solution.edge_voltage + 0.05
        with pytest.raises(InvariantViolation, match="above the edge supply"):
            checker.check_solution(solver, solution)

    def test_collapsed_node_trips_droop_floor(self):
        checker = DroopBoundChecker()
        solver = PdnSolver(SystemConfig(rows=6, cols=6))
        solution = solver.solve()
        solution.voltages[3, 3] = 0.0
        with pytest.raises(InvariantViolation, match="physical floor"):
            checker.check_solution(solver, solution)


class TestGoldenPdn:
    def test_matches_sparse_solver_exactly(self):
        cfg = SystemConfig(rows=5, cols=7)
        rng = np.random.default_rng(11)
        power = rng.random((5, 7)) * cfg.tile_peak_power_w
        for load_model in ("ldo", "constant_power"):
            fast = PdnSolver(cfg).solve(power, load_model=load_model)
            voltages, currents, iterations = golden_pdn_solve(
                cfg, power, load_model=load_model
            )
            np.testing.assert_allclose(fast.voltages, voltages, atol=1e-7, rtol=0)
            np.testing.assert_allclose(fast.currents, currents, atol=1e-6, rtol=0)
            assert fast.iterations == iterations


# ---------------------------------------------------------------------------
# Emulator route coherence
# ---------------------------------------------------------------------------


class TestRouteCoherenceMutation:
    def _emulator(self, checker):
        clear_route_cache()
        cfg = SystemConfig(rows=6, cols=6)
        fmap = FaultMap(cfg).with_fault((2, 2))
        system = WaferscaleSystem(cfg, fmap)
        return Emulator(system, engine="vector", checkers=[checker])

    @staticmethod
    def _exchange(emulator):
        emulator.send((0, 0), (4, 4), payload=1)
        emulator.send((1, 0), (2, 3), payload=2)
        emulator.superstep(lambda tile, inbox, em: 0)

    def test_clean_cache_hits_pass(self):
        checker = RouteCoherenceChecker(sample=1)
        emulator = self._emulator(checker)
        self._exchange(emulator)                # every routed flow fires
        self._exchange(emulator)
        assert checker.checks >= 2
        assert checker.violations == 0

    def test_poisoned_route_table_cell_trips(self):
        checker = RouteCoherenceChecker(sample=1)
        emulator = self._emulator(checker)
        self._exchange(emulator)
        # (0, 0) -> (4, 4) clears the fault at (2, 2) on both networks;
        # marking the pair blocked sends it down the detour search.
        table = emulator._table
        table.direct_flat[0 * table.n + 4 * table.cols + 4] = False
        with pytest.raises(InvariantViolation, match="disagrees with recomputation"):
            self._exchange(emulator)

    def test_sample_must_be_positive(self):
        with pytest.raises(ReproError):
            RouteCoherenceChecker(sample=0)


class TestGoldenGraphOracles:
    def test_bfs_matches_networkx(self):
        import networkx as nx

        graph = random_graph(nodes=40, mean_degree=3.0, seed=5)
        expected = nx.single_source_shortest_path_length(graph, 0)
        assert golden_bfs(graph, 0) == dict(expected)

    def test_sssp_matches_networkx(self):
        import networkx as nx

        graph = random_graph(nodes=40, mean_degree=3.0, seed=6, weighted=True)
        expected = nx.single_source_dijkstra_path_length(graph, 0)
        mine = golden_sssp(graph, 0)
        assert mine.keys() == dict(expected).keys()
        for node, dist in expected.items():
            assert mine[node] == pytest.approx(dist, abs=1e-9)


# ---------------------------------------------------------------------------
# DfT chain integrity
# ---------------------------------------------------------------------------


class TestChainIntegrityMutation:
    def test_clean_plans_pass(self):
        checker = ChainIntegrityChecker()
        cfg = SystemConfig(rows=6, cols=6)
        checker.check_plan(row_chains(cfg))
        checker.check_plan(single_chain(cfg))
        assert checker.violations == 0

    @staticmethod
    def _with_first_chain_tiles(plan, tiles):
        """The plan with chain 0's tile tuple replaced (plans are frozen)."""
        mutated = ChainPlan(chain_index=0, tiles=tuple(tiles))
        return MultiChainPlan(
            config=plan.config, chains=(mutated,) + plan.chains[1:]
        )

    def test_duplicated_tile_trips(self):
        checker = ChainIntegrityChecker()
        plan = row_chains(SystemConfig(rows=6, cols=6))
        tiles = (plan.chains[1].tiles[0],) + plan.chains[0].tiles[1:]
        with pytest.raises(InvariantViolation, match="two chain positions"):
            checker.check_plan(self._with_first_chain_tiles(plan, tiles))

    def test_lost_tile_trips(self):
        checker = ChainIntegrityChecker()
        plan = row_chains(SystemConfig(rows=6, cols=6))
        tiles = plan.chains[0].tiles[:-1]
        with pytest.raises(InvariantViolation, match="lost tiles"):
            checker.check_plan(self._with_first_chain_tiles(plan, tiles))

    def test_out_of_range_tile_trips(self):
        checker = ChainIntegrityChecker()
        plan = row_chains(SystemConfig(rows=6, cols=6))
        tiles = ((99, 0),) + plan.chains[0].tiles[1:]
        with pytest.raises(InvariantViolation, match="outside the array"):
            checker.check_plan(self._with_first_chain_tiles(plan, tiles))

    def _session_steps(self, health):
        session = ChainTestSession(
            [TileUnderTest(i, healthy=ok) for i, ok in enumerate(health)]
        )
        session.unroll()
        return session.steps

    def test_clean_unroll_passes(self):
        checker = ChainIntegrityChecker()
        health = [True, True, False, True]
        checker.check_unroll(self._session_steps(health), health)
        assert checker.violations == 0

    def test_flipped_verdict_trips(self):
        checker = ChainIntegrityChecker()
        health = [True, True, True]
        steps = self._session_steps(health)
        steps[1].passed = False
        with pytest.raises(InvariantViolation):
            checker.check_unroll(steps, health)

    def test_walking_past_first_failure_trips(self):
        checker = ChainIntegrityChecker()
        health = [True, False, True]
        steps = self._session_steps(health)
        steps.append(UnrollStep(tile_index=2, passed=True, visible_chain_length=3))
        with pytest.raises(InvariantViolation, match="past the first failure"):
            checker.check_unroll(steps, health)

    def test_wrong_visible_length_trips(self):
        checker = ChainIntegrityChecker()
        health = [True, True]
        steps = self._session_steps(health)
        steps[1].visible_chain_length = 7
        with pytest.raises(InvariantViolation, match="visible chain length"):
            checker.check_unroll(steps, health)


# ---------------------------------------------------------------------------
# Differential campaigns + engine verify mode
# ---------------------------------------------------------------------------


class TestGoldenNocDifferential:
    def test_engines_match_golden_on_faulty_array(self):
        cfg = SystemConfig(rows=6, cols=6)
        fmap = FaultMap(cfg).with_fault((2, 4))
        schedule = generate_traffic(cfg, TrafficPattern.TRANSPOSE, 0.02, 30, seed=9)
        nets = list(NetworkId)

        reports = []
        for builder in (
            lambda: NocSimulator(cfg, fault_map=fmap, engine="reference"),
            lambda: NocSimulator(cfg, fault_map=fmap, engine="fast"),
            lambda: GoldenNocModel(cfg, fault_map=fmap),
        ):
            model = builder()
            fresh = generate_traffic(cfg, TrafficPattern.TRANSPOSE, 0.02, 30, seed=9)
            for i, (cycle, packet) in enumerate(fresh):
                while model.cycle < cycle:
                    model.step()
                model.inject(packet, nets[i % 2])
            model.run(150)
            reports.append(model.report())

        ref, fast, golden = reports
        assert ref == fast
        for name in (
            "injected",
            "delivered",
            "responses_delivered",
            "dropped_unreachable",
            "dropped_in_flight",
            "in_flight",
        ):
            assert getattr(ref, name) == getattr(golden, name), name
        assert sorted(ref.latencies) == sorted(golden.latencies)


class TestVerifyCampaign:
    @pytest.mark.parametrize("suite", ["noc", "pdn", "emu", "dft"])
    def test_reduced_trial_suites_pass(self, suite):
        verdict = run_verify(suite=suite, trials=2, seed=0)
        assert verdict["passed"], verdict
        entry = verdict["suites"][suite]
        assert entry["trials"] == 2
        assert entry["checks"] > 0

    def test_verdict_is_deterministic(self):
        first = run_verify(suite="dft", trials=3, seed=42)
        second = run_verify(suite="dft", trials=3, seed=42)
        for verdict in (first, second):
            for entry in verdict["suites"].values():
                entry.pop("elapsed_s")
        assert first == second

    def test_rejects_unknown_suite_and_zero_trials(self):
        with pytest.raises(ReproError):
            run_verify(suite="bogus", trials=1)
        with pytest.raises(ReproError):
            run_verify(suite="noc", trials=0)

    def test_trial_value_hook_rejects_empty_trials(self):
        _verify_trial_value(0, {"checks": 12})
        with pytest.raises(InvariantViolation, match="no invariant checks"):
            _verify_trial_value(1, {"checks": 0})
        with pytest.raises(InvariantViolation):
            _verify_trial_value(2, None)


def _counting_trial(ctx):
    return {"checks": ctx.index + 1}


class TestEngineVerifyMode:
    def test_hook_sees_every_trial_in_order(self):
        calls = []
        engine = ExperimentEngine()
        engine.run(
            _counting_trial,
            experiment="verify.hook",
            trials=4,
            verify=lambda index, value: calls.append((index, value)),
        )
        assert calls == [(i, {"checks": i + 1}) for i in range(4)]

    def test_failing_hook_aborts_before_cache_write(self, tmp_path):
        def explode(index, value):
            raise InvariantViolation("test", "hook", "nope", {"trial": index})

        engine = ExperimentEngine(cache=ResultCache(tmp_path))
        with pytest.raises(InvariantViolation):
            engine.run(
                _counting_trial, experiment="verify.abort", trials=3, verify=explode
            )
        # Nothing was persisted: the re-run is a cache miss.
        result = engine.run(_counting_trial, experiment="verify.abort", trials=3)
        assert not result.from_cache

    def test_hook_runs_on_cache_hits(self, tmp_path):
        engine = ExperimentEngine(cache=ResultCache(tmp_path))
        engine.run(_counting_trial, experiment="verify.cached", trials=3)
        calls = []
        result = engine.run(
            _counting_trial,
            experiment="verify.cached",
            trials=3,
            verify=lambda index, value: calls.append(index),
        )
        assert result.from_cache
        assert calls == [0, 1, 2]


# ---------------------------------------------------------------------------
# Shared strategy library
# ---------------------------------------------------------------------------


class TestSharedStrategies:
    def test_draws_valid_domain_values(self):
        from hypothesis import given, settings

        from repro.verify import strategies as vs

        @given(
            coord=vs.coords8,
            cfg=vs.system_configs(),
            fmap=vs.fault_maps(max_faults=5),
            rate=vs.injection_rates(),
        )
        @settings(max_examples=20, deadline=None)
        def check(coord, cfg, fmap, rate):
            assert 0 <= coord[0] < 8 and 0 <= coord[1] < 8
            assert 4 <= cfg.rows <= 10 and 4 <= cfg.cols <= 10
            assert fmap.healthy_count >= 1
            assert fmap.config.tiles - fmap.healthy_count <= 5
            assert 0.001 <= rate <= 0.05

        check()
