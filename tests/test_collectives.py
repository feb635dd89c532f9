"""Tests for the collective workload family and its conformance oracles.

Four layers, mirroring the verify architecture:

* program semantics vs the naive golden models (pure differential);
* Hypothesis conformance: random (geometry, fault map, spec) points
  must agree bit-identically across all three NoC engines and the
  golden reduction on every reachable tile;
* mutation must-trip tests: a corrupted, dropped or duplicated
  contribution MUST raise a structured ``InvariantViolation`` with
  tile/phase context — an oracle that cannot fail cannot catch bugs;
* the seeded fault-degradation regression pinning achieved-bandwidth
  monotonic non-increase as the fault count grows.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arch.system import WaferscaleSystem
from repro.arch.emulator import ENGINES as EMULATOR_ENGINES, clear_route_cache
from repro.config import SystemConfig
from repro.errors import NetworkError, WorkloadError
from repro.noc.dualnetwork import DualNetwork
from repro.noc.faults import FaultMap, random_fault_map
from repro.noc.simulator import ENGINES
from repro.verify.campaign import _collective_golden_check, _collective_trial
from repro.verify.golden import (
    golden_all_reduce,
    golden_all_to_all,
    golden_broadcast,
    golden_collective_finals,
    golden_dataflow,
    golden_pipeline,
    golden_reduce,
)
from repro.verify.invariants import InvariantViolation
from repro.verify.strategies import collective_specs
from repro.workloads.collectives import (
    PATTERNS,
    PLACEMENTS,
    CollectiveDriver,
    CollectiveSpec,
    all_to_all,
    broadcast,
    build_program,
    check_delivery,
    compile_noc,
    contribution,
    execute_program,
    fault_sweep,
    pipeline,
    recursive_doubling_all_reduce,
    ring_all_reduce,
    run_noc_collective,
    select_ranks,
    tree_reduce,
)
from repro.workloads.dataflow import DataflowGraph, demo_graph


def _golden_for(program):
    return golden_collective_finals(
        program.name,
        program.ranks,
        seed=program.params.get("seed", 0),
        segments=program.params.get("segments", 1),
        root=program.params.get("root", 0),
        stages=program.params.get("stages", 2),
        microbatches=program.params.get("microbatches", 4),
    )


def _assert_matches_golden(program, finals):
    for rank, slots in _golden_for(program).items():
        for slot, want in slots.items():
            assert finals[rank].get(slot, 0) == want, (
                program.name, rank, slot,
            )


# ---------------------------------------------------------------------------
# program semantics vs the naive golden models
# ---------------------------------------------------------------------------


class TestProgramSemantics:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("segments", [1, 2])
    def test_ring_all_reduce(self, n, segments):
        if segments > n:
            pytest.skip("segments capped at rank count")
        program = ring_all_reduce(n, segments=segments, seed=3)
        program.validate()
        finals = execute_program(program).finals
        values = [
            [contribution(3, r, s) for s in range(segments)] for r in range(n)
        ]
        totals = golden_all_reduce(values)
        for r in range(n):
            for s in range(segments):
                assert finals[r][s] == totals[s]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 7, 8, 13])
    def test_recursive_doubling_all_reduce(self, n):
        program = recursive_doubling_all_reduce(n, seed=5)
        program.validate()
        finals = execute_program(program).finals
        total = golden_all_reduce([[contribution(5, r, 0)] for r in range(n)])
        for r in range(n):
            assert finals[r][0] == total[0]

    @pytest.mark.parametrize("n,root", [(1, 0), (4, 0), (5, 3), (9, 8)])
    def test_broadcast_and_reduce(self, n, root):
        bcast = broadcast(n, root=root, seed=2)
        bcast.validate()
        finals = execute_program(bcast).finals
        values = [contribution(2, r, 0) for r in range(n)]
        want = golden_broadcast(values, root)
        for r in range(n):
            assert finals[r][0] == want[r]

        red = tree_reduce(n, root=root, seed=2)
        red.validate()
        finals = execute_program(red).finals
        assert finals[root][0] == golden_reduce(values)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    def test_all_to_all(self, n):
        program = all_to_all(n, seed=9)
        program.validate()
        finals = execute_program(program).finals
        values = [
            [contribution(9, i, j) for j in range(n)] for i in range(n)
        ]
        want = golden_all_to_all(values)
        for j in range(n):
            for i in range(n):
                assert finals[j][n + i] == want[j][i]

    @pytest.mark.parametrize(
        "n,stages,microbatches", [(1, 1, 1), (4, 2, 3), (6, 3, 4), (8, 4, 2)]
    )
    def test_pipeline(self, n, stages, microbatches):
        program = pipeline(n, stages=stages, microbatches=microbatches, seed=4)
        program.validate()
        finals = execute_program(program).finals
        outs = golden_pipeline(
            [
                [contribution(4, t, b) for b in range(microbatches)]
                for t in range(stages)
            ]
        )
        expected = _golden_for(program)
        for rank, slots in expected.items():
            for b, want in slots.items():
                assert want == outs[b]
                assert finals[rank][b] == want

    def test_ring_rejects_too_many_segments(self):
        with pytest.raises(WorkloadError):
            ring_all_reduce(3, segments=4)

    def test_build_program_rejects_unknown_pattern(self):
        with pytest.raises(WorkloadError):
            build_program(CollectiveSpec(pattern="gossip"), 4)

    def test_placements_are_deterministic(self):
        cfg = SystemConfig(rows=5, cols=5)
        fmap = random_fault_map(cfg, 3, rng=7)
        for placement in PLACEMENTS:
            spec = CollectiveSpec(ranks=8, placement=placement, seed=11)
            assert select_ranks(fmap, spec) == select_ranks(fmap, spec)
        row = select_ranks(fmap, CollectiveSpec(ranks=8))
        col = select_ranks(fmap, CollectiveSpec(ranks=8, placement="column-major"))
        assert row != col

    def test_select_ranks_rejects_oversubscription(self):
        cfg = SystemConfig(rows=4, cols=4)
        with pytest.raises(WorkloadError):
            select_ranks(FaultMap(cfg), CollectiveSpec(ranks=17))


# ---------------------------------------------------------------------------
# Hypothesis conformance across engines and golden
# ---------------------------------------------------------------------------


class TestHypothesisConformance:
    @given(
        rows=st.integers(4, 6),
        cols=st.integers(4, 6),
        faults=st.integers(0, 3),
        fault_seed=st.integers(0, 2**31 - 1),
        spec=collective_specs(max_ranks=9),
    )
    @settings(max_examples=12, deadline=None)
    def test_three_engines_agree_with_golden(
        self, rows, cols, faults, fault_seed, spec
    ):
        cfg = SystemConfig(rows=rows, cols=cols)
        fmap = random_fault_map(cfg, faults, rng=fault_seed)
        spec = dataclasses.replace(
            spec, ranks=min(spec.ranks, fmap.healthy_count)
        )
        try:
            coll = compile_noc(cfg, fmap, spec)
        except NetworkError:
            fmap = FaultMap(cfg)
            coll = compile_noc(cfg, fmap, spec)

        reports = {}
        for engine in ENGINES:
            reports[engine], checks = run_noc_collective(coll, engine=engine)
            assert checks > 0
        assert reports["fast"] == reports["reference"] == reports["vector"]

        # Every reachable (= participant) tile ends with the golden value.
        _assert_matches_golden(coll.program, coll.trace.finals)

    @given(
        faults=st.integers(0, 3),
        seed=st.integers(0, 2**31 - 1),
        pattern=st.sampled_from(PATTERNS),
    )
    # Tile (0, 4) loses both neighbours: the rank there is walled in.
    @example(faults=3, seed=100000, pattern="ring-all-reduce")
    @settings(max_examples=10, deadline=None)
    def test_emulator_driver_matches_noc_and_golden(self, faults, seed, pattern):
        cfg = SystemConfig(rows=5, cols=5)
        fmap = random_fault_map(cfg, faults, rng=seed)
        spec = CollectiveSpec(
            pattern=pattern, seed=seed, ranks=min(6, fmap.healthy_count),
            segments=2, root=1, stages=2, microbatches=3,
        )
        try:
            compile_noc(cfg, fmap, spec)
        except NetworkError:
            # Every emulator engine must refuse the map with one message;
            # the conformance run then proceeds fault-free.
            driver = CollectiveDriver(WaferscaleSystem(cfg, fmap), spec)
            messages = set()
            for engine in EMULATOR_ENGINES:
                with pytest.raises(NetworkError) as excinfo:
                    driver.run(engine=engine)
                messages.add(str(excinfo.value))
            assert len(messages) == 1
            fmap = FaultMap(cfg)
        clear_route_cache()
        system = WaferscaleSystem(cfg, fmap)
        driver = CollectiveDriver(system, spec)
        stats = {e: driver.run(engine=e) for e in ("reference", "vector")}
        assert stats["reference"] == stats["vector"]
        _assert_matches_golden(driver.program, driver.state)


# ---------------------------------------------------------------------------
# mutation must-trip tests for the oracles
# ---------------------------------------------------------------------------


def _delivered(coll, engine="reference"):
    from repro.noc.simulator import NocSimulator

    sim = NocSimulator(coll.config, coll.fault_map, engine=engine)
    schedule = coll.packet_schedule()
    position = 0
    for cycle in range(coll.last_cycle + 1):
        while position < len(schedule) and schedule[position][0] == cycle:
            _, packet, network = schedule[position]
            sim.inject(packet, network)
            position += 1
        sim.step()
    sim.drain()
    return list(sim.delivered_packets)


class TestOracleMustTrip:
    def _compiled(self):
        cfg = SystemConfig(rows=5, cols=5)
        fmap = random_fault_map(cfg, 2, rng=3)
        spec = CollectiveSpec(pattern="ring-all-reduce", ranks=6, segments=2, seed=8)
        return compile_noc(cfg, fmap, spec)

    def test_healthy_run_passes(self):
        coll = self._compiled()
        assert check_delivery(coll, _delivered(coll)) > 0

    def test_corrupted_contribution_trips_with_context(self):
        coll = self._compiled()
        packets = _delivered(coll)
        packets[3].payload = (packets[3].payload + 1) % (1 << 64)
        with pytest.raises(InvariantViolation) as exc:
            check_delivery(coll, packets, engine="reference")
        violation = exc.value
        assert violation.subsystem == "collective"
        assert "phase" in violation.context
        assert "src" in violation.context and "dst" in violation.context
        assert violation.context["engine"] == "reference"

    def test_dropped_packet_trips(self):
        coll = self._compiled()
        with pytest.raises(InvariantViolation):
            check_delivery(coll, _delivered(coll)[:-1])

    def test_duplicated_packet_trips(self):
        coll = self._compiled()
        packets = _delivered(coll)
        with pytest.raises(InvariantViolation):
            check_delivery(coll, packets + [packets[0]])

    def test_foreign_packet_trips(self):
        coll = self._compiled()
        packets = _delivered(coll)
        stray = dataclasses.replace(packets[0])
        stray.address = len(coll.program.phases) + 7
        with pytest.raises(InvariantViolation) as exc:
            check_delivery(coll, packets + [stray])
        assert exc.value.invariant == "delivery_oracle"

    def test_emulator_final_state_corruption_trips(self):
        cfg = SystemConfig(rows=4, cols=4)
        clear_route_cache()
        system = WaferscaleSystem(cfg, None)
        driver = CollectiveDriver(
            system, CollectiveSpec(pattern="rd-all-reduce", ranks=5, seed=1)
        )
        driver.run(engine="reference")
        driver.state[2][0] ^= 1
        with pytest.raises(InvariantViolation) as exc:
            driver.verify()
        violation = exc.value
        assert violation.invariant == "completion_oracle"
        assert violation.context["rank"] == 2
        assert "tile" in violation.context and "slot" in violation.context

    def test_campaign_golden_check_trips(self):
        coll = self._compiled()
        assert _collective_golden_check(coll) > 0
        rank = next(iter(coll.trace.finals))
        coll.trace.finals[rank][0] ^= 1
        with pytest.raises(InvariantViolation) as exc:
            _collective_golden_check(coll)
        assert exc.value.invariant == "golden_differential"


# ---------------------------------------------------------------------------
# seeded fault-degradation regression
# ---------------------------------------------------------------------------


class TestFaultDegradation:
    def test_bandwidth_monotone_non_increasing(self):
        """Nested fault maps with a pinned participant set: more faults
        can only detour or congest the same logical traffic, so achieved
        bandwidth must not increase.  Seeded so re-route regressions
        (e.g. detours silently becoming drops) fail loudly."""
        cfg = SystemConfig(rows=8, cols=8)
        spec = CollectiveSpec(pattern="ring-all-reduce", ranks=24, segments=8)
        points = fault_sweep(
            cfg, spec, [0, 4, 8, 12, 16], seed=6, phase_gap=1
        )
        assert all(p["ok"] for p in points)
        bandwidth = [p["bandwidth_words_per_cycle"] for p in points]
        assert all(
            bandwidth[i] >= bandwidth[i + 1] for i in range(len(bandwidth) - 1)
        ), bandwidth
        assert bandwidth[0] > bandwidth[-1]
        detours = [p["detoured_transfers"] for p in points]
        assert detours[0] == 0 and max(detours) > 0

    def test_sweep_reports_oracle_checks(self):
        cfg = SystemConfig(rows=5, cols=5)
        points = fault_sweep(
            cfg, CollectiveSpec(pattern="broadcast", ranks=8), [0, 2], seed=1
        )
        assert all(p["oracle_checks"] > 0 for p in points if p["ok"])

    def test_row0_fault_detours_never_run_the_scalar_search(self, monkeypatch):
        """A row-0 fault on the full wafer detours 336 all-to-all
        transfers; every detour must come from the shared route table.
        The per-tile scalar search (~40 s for this compile) and the path
        walks it is built on are patched to fail."""

        def scalar_search(*args, **kwargs):
            raise AssertionError("scalar detour search on the compile path")

        monkeypatch.setattr(
            "repro.noc.kernel._find_detour_reference", scalar_search
        )
        monkeypatch.setattr(DualNetwork, "connected", scalar_search)
        cfg = SystemConfig(rows=32, cols=32)
        coll = compile_noc(
            cfg,
            FaultMap(cfg, frozenset({(0, 7)})),
            CollectiveSpec(pattern="all-to-all", ranks=32, seed=1),
        )
        assert coll.detoured_transfers == 336


# ---------------------------------------------------------------------------
# dataflow DAG workloads
# ---------------------------------------------------------------------------


class TestDataflow:
    def _graph(self):
        graph = DataflowGraph(seed=13)
        graph.add_layer("a", 3)
        graph.add_layer("b", 2)
        graph.add_layer("c", 4)
        graph.add_layer("d", 1)
        graph.add_edge("a", "b", "dense")
        graph.add_edge("b", "c", "broadcast")
        graph.add_edge("a", "c", "dense")
        graph.add_edge("c", "d", "reduce")
        return graph

    def _golden(self, graph):
        inputs, biases = {}, {}
        fed = {e.dst for e in graph.edges}
        for name, layer in graph.layers.items():
            slot = 0 if name not in fed else 1
            values = [
                contribution(graph.seed, r, slot) for r in layer.ranks
            ]
            (inputs if name not in fed else biases)[name] = values
        return golden_dataflow(
            [(name, layer.width) for name, layer in graph.layers.items()],
            [(e.src, e.dst, e.kind) for e in graph.edges],
            inputs,
            biases,
        )

    def test_program_matches_golden(self):
        graph = self._graph()
        program = graph.build_program()
        finals = graph.layer_finals(execute_program(program).finals)
        assert finals == self._golden(graph)

    def test_cycle_detection(self):
        graph = DataflowGraph()
        graph.add_layer("x", 1)
        graph.add_layer("y", 1)
        graph.add_edge("x", "y")
        graph.add_edge("y", "x")
        with pytest.raises(WorkloadError):
            graph.build_program()

    def test_noc_backend_runs_dataflow(self):
        graph = self._graph()
        cfg = SystemConfig(rows=5, cols=5)
        fmap = random_fault_map(cfg, 2, rng=5)
        coll = compile_noc(
            cfg, fmap, CollectiveSpec(seed=5), program=graph.build_program()
        )
        reports = {}
        for engine in ENGINES:
            reports[engine], checks = run_noc_collective(coll, engine=engine)
            assert checks > 0
        assert reports["fast"] == reports["reference"] == reports["vector"]
        assert graph.layer_finals(coll.trace.finals) == self._golden(graph)

    def test_emulator_backend_runs_dataflow(self):
        graph = self._graph()
        cfg = SystemConfig(rows=5, cols=5)
        clear_route_cache()
        system = WaferscaleSystem(cfg, random_fault_map(cfg, 2, rng=5))
        driver = CollectiveDriver(
            system, CollectiveSpec(seed=5), program=graph.build_program()
        )
        stats = {e: driver.run(engine=e) for e in ("reference", "vector")}
        assert stats["reference"] == stats["vector"]
        assert graph.layer_finals(driver.state) == self._golden(graph)

    def test_demo_graph_covers_every_edge_kind(self):
        graph = demo_graph(seed=2)
        kinds = {e.kind for e in graph.edges}
        assert kinds == {"dense", "broadcast", "reduce"}
        program = graph.build_program()
        finals = graph.layer_finals(execute_program(program).finals)
        assert finals == self._golden(graph)


# ---------------------------------------------------------------------------
# campaign integration
# ---------------------------------------------------------------------------


class TestCampaignIntegration:
    def test_collective_suite_passes(self):
        from repro.verify import run_verify

        verdict = run_verify(suite="collective", trials=6, seed=0)
        entry = verdict["suites"]["collective"]
        assert entry["passed"], entry
        assert entry["checks"] > 0

    def test_trial_covers_multiple_geometries_and_patterns(self):
        from repro.engine.core import ExperimentEngine

        result = ExperimentEngine().run(
            _collective_trial,
            experiment="test.collective.coverage",
            trials=12,
            seed=0,
            params={"rows": 8, "cols": 8},
        )
        geometries = {tuple(v["geometry"]) for v in result.values}
        patterns = {v["pattern"] for v in result.values}
        assert len(geometries) >= 2
        assert len(patterns) == len(PATTERNS)
