"""Differential tests: the batched vector NoC engine and trial batching.

``engine="vector"`` advances the whole mesh through a handful of numpy
kernel calls per cycle (lane-major arbitration over occupied FIFO lanes,
packet pools, credit-indexed injection).  None of that machinery may be
observable: every test here drives the vector engine over identical
traffic as the reference engine (the oracle) and requires bit-identical
reports, delivery order and telemetry.  The batched form
(:func:`simulate_batch`) must in turn equal B individual vector runs
field for field.
"""

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.errors import NetworkError
from repro.noc.dualnetwork import NetworkId
from repro.noc.faults import FaultMap, random_fault_map
from repro.noc.loadlatency import measure_load_latency
from repro.noc.packets import Packet, PacketKind
from repro.noc.routing import RoutingPolicy, build_port_lut, dor_port_codes
from repro.noc.simulator import ENGINES, NocSimulator
from repro.noc.vectorsim import (
    BatchNocSimulator,
    VectorNocSimulator,
    simulate_batch,
)
from repro.workloads.traffic import TrafficPattern, generate_traffic

ENGINE_PAIR = ("reference", "vector")


def _drive(engine, cfg, fault_map, fifo_depth, traffic, kind=PacketKind.REQUEST,
           alternate=False):
    """Run one engine over (cycle, packet) traffic, then drain."""
    sim = NocSimulator(
        cfg, fault_map=fault_map, fifo_depth=fifo_depth, engine=engine
    )
    for position, (cycle, packet) in enumerate(traffic):
        while sim.cycle < cycle:
            sim.step()
        if kind is not PacketKind.REQUEST:
            packet = Packet(kind=kind, src=packet.src, dst=packet.dst)
        net = NetworkId.YX if (alternate and position % 2) else NetworkId.XY
        sim.inject(packet, net)
    sim.drain(max_cycles=100_000)
    return sim


def _assert_equivalent(ref, vec):
    """Field-for-field equality of two engines' observable state."""
    assert ref.report() == vec.report()
    assert ref.cycle == vec.cycle
    assert ref.link_stalls == vec.link_stalls
    assert ref.dropped_in_flight == vec.dropped_in_flight
    assert ref.injected_count == vec.injected_count
    ref_seq = [
        (p.src, p.dst, p.kind, p.injected_cycle, p.delivered_cycle)
        for p in ref.delivered_packets
    ]
    vec_seq = [
        (p.src, p.dst, p.kind, p.injected_cycle, p.delivered_cycle)
        for p in vec.delivered_packets
    ]
    assert ref_seq == vec_seq


class TestEngineSelection:
    def test_vector_engine_via_factory(self, small_cfg):
        sim = NocSimulator(small_cfg, engine="vector")
        assert isinstance(sim, VectorNocSimulator)
        assert isinstance(sim, NocSimulator)
        assert sim.engine == "vector"
        assert "vector" in ENGINES

    def test_reference_is_default(self, small_cfg):
        sim = NocSimulator(small_cfg)
        assert type(sim) is NocSimulator
        assert sim.engine == "reference"

    def test_fast_is_an_alias_of_reference(self, small_cfg):
        """``"fast"`` stays an accepted name: it builds the reference
        engine and only echoes its name."""
        sim = NocSimulator(small_cfg, engine="fast")
        assert type(sim) is NocSimulator
        assert sim.engine == "fast"
        assert ENGINES == ("reference", "fast", "vector")

    def test_unknown_engine_rejected(self, small_cfg):
        with pytest.raises(NetworkError):
            NocSimulator(small_cfg, engine="warp")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_engines_validate_fifo_depth(self, small_cfg, engine):
        with pytest.raises(NetworkError):
            NocSimulator(small_cfg, fifo_depth=0, engine=engine)


class TestVectorizedRouting:
    """The arithmetic routing kernel agrees with its scalar twin."""

    @pytest.mark.parametrize("policy", list(RoutingPolicy))
    @pytest.mark.parametrize("rows,cols", [(1, 6), (5, 4), (3, 7)])
    def test_dor_port_codes_matches_lut(self, rows, cols, policy):
        lut = build_port_lut(rows, cols, policy)
        flat = np.arange(rows * cols)
        r, c = flat // cols, flat % cols
        codes = dor_port_codes(
            r[:, None], c[:, None], r[None, :], c[None, :], policy
        )
        assert codes.dtype == np.int8
        assert np.array_equal(codes, lut)


class TestDifferentialEquivalence:
    """Acceptance matrix: patterns x fifo depths x fault maps x engines."""

    @pytest.mark.parametrize("fifo_depth", [1, 2, 4])
    @pytest.mark.parametrize(
        "pattern",
        [TrafficPattern.UNIFORM, TrafficPattern.TRANSPOSE, TrafficPattern.HOTSPOT],
    )
    @pytest.mark.parametrize("fault_seed", [None, 11, 23])
    def test_request_response_workload(self, pattern, fifo_depth, fault_seed):
        cfg = SystemConfig(rows=6, cols=6)
        fmap = (
            random_fault_map(cfg, 4, rng=fault_seed)
            if fault_seed is not None
            else None
        )
        sims = {}
        for engine in ENGINE_PAIR:
            traffic = generate_traffic(cfg, pattern, 0.08, 40, seed=5)
            sims[engine] = _drive(engine, cfg, fmap, fifo_depth, traffic)
        _assert_equivalent(sims["reference"], sims["vector"])

    @pytest.mark.parametrize("fifo_depth", [1, 2, 4])
    @pytest.mark.parametrize("fault_seed", [None, 11, 23])
    def test_yx_driver_injection(self, fault_seed, fifo_depth):
        """Driver traffic on BOTH networks: responses then share a LOCAL
        FIFO with fresh driver packets, so any divergence in admission
        order (backlog, driver, released responses) becomes visible."""
        cfg = SystemConfig(rows=6, cols=6)
        fmap = (
            random_fault_map(cfg, 4, rng=fault_seed)
            if fault_seed is not None
            else None
        )
        sims = {}
        for engine in ENGINE_PAIR:
            traffic = generate_traffic(
                cfg, TrafficPattern.UNIFORM, 0.12, 40, seed=3
            )
            sims[engine] = _drive(
                engine, cfg, fmap, fifo_depth, traffic, alternate=True
            )
        _assert_equivalent(sims["reference"], sims["vector"])

    @pytest.mark.parametrize("fifo_depth", [1, 2, 4])
    def test_one_way_response_workload(self, fifo_depth):
        """RESPONSE-kind packets ride one network and spawn no replies."""
        cfg = SystemConfig(rows=6, cols=6)
        sims = {}
        for engine in ENGINE_PAIR:
            traffic = generate_traffic(
                cfg, TrafficPattern.UNIFORM, 0.1, 30, seed=9
            )
            sims[engine] = _drive(
                engine, cfg, None, fifo_depth, traffic, kind=PacketKind.RESPONSE
            )
        _assert_equivalent(sims["reference"], sims["vector"])
        report = sims["vector"].report()
        assert report.responses_delivered == report.delivered

    @pytest.mark.parametrize("fault_seed", [2, 3, 5, 8])
    def test_randomized_fault_maps_with_in_flight_drops(self, fault_seed):
        """Dense random faults force mid-path drops on both engines."""
        cfg = SystemConfig(rows=8, cols=8)
        fmap = random_fault_map(cfg, 10, rng=fault_seed)
        sims = {}
        for engine in ENGINE_PAIR:
            traffic = generate_traffic(
                cfg, TrafficPattern.UNIFORM, 0.1, 40, seed=fault_seed
            )
            sims[engine] = _drive(engine, cfg, fmap, 2, traffic)
        _assert_equivalent(sims["reference"], sims["vector"])
        assert sims["vector"].dropped_in_flight > 0

    def test_saturating_hotspot(self):
        """Heavy hotspot load: backpressure, stalls, long queues."""
        cfg = SystemConfig(rows=6, cols=6)
        sims = {}
        for engine in ENGINE_PAIR:
            traffic = generate_traffic(
                cfg, TrafficPattern.HOTSPOT, 0.4, 30, seed=13
            )
            sims[engine] = _drive(engine, cfg, None, 2, traffic)
        _assert_equivalent(sims["reference"], sims["vector"])
        assert sims["vector"].link_stalls > 0

    def test_arithmetic_routing_path(self, monkeypatch):
        """Force the no-LUT arithmetic port kernel and re-check equality."""
        import repro.noc.vectorsim as vectorsim

        monkeypatch.setattr(vectorsim, "LUT_MAX_TILES", 1)
        cfg = SystemConfig(rows=6, cols=6)
        traffic = generate_traffic(cfg, TrafficPattern.UNIFORM, 0.1, 40, seed=2)
        vec = _drive("vector", cfg, None, 4, traffic)
        assert vec._mesh.lut is None   # the LUT really was disabled
        traffic = generate_traffic(cfg, TrafficPattern.UNIFORM, 0.1, 40, seed=2)
        ref = _drive("reference", cfg, None, 4, traffic)
        _assert_equivalent(ref, vec)

    def test_telemetry_metrics_match(self):
        """With live telemetry both engines record identical metrics —
        occupancy histograms (incremental counters vs scans), stall and
        delivery counters, and the per-router report() snapshot."""
        from repro.obs import Telemetry

        cfg = SystemConfig(rows=6, cols=6)
        fmap = random_fault_map(cfg, 3, rng=4)
        snapshots = {}
        for engine in ENGINE_PAIR:
            tel = Telemetry()
            traffic = generate_traffic(cfg, TrafficPattern.UNIFORM, 0.1, 30, seed=7)
            sim = NocSimulator(
                cfg, fault_map=fmap, fifo_depth=2, telemetry=tel, engine=engine
            )
            for cycle, packet in traffic:
                while sim.cycle < cycle:
                    sim.step()
                sim.inject(packet, NetworkId.XY)
            sim.drain(max_cycles=100_000)
            sim.report()
            snapshots[engine] = tel.metrics.to_dict()
        assert snapshots["reference"] == snapshots["vector"]

    def test_invariant_checkers_attach(self, small_cfg):
        from repro.verify import full_noc_checkers

        checkers = full_noc_checkers()
        sim = NocSimulator(small_cfg, engine="vector", checkers=checkers)
        traffic = generate_traffic(
            small_cfg, TrafficPattern.UNIFORM, 0.08, 30, seed=1
        )
        for cycle, packet in traffic:
            while sim.cycle < cycle:
                sim.step()
            sim.inject(packet, NetworkId.XY)
        sim.drain(max_cycles=100_000)
        assert sum(c.checks for c in checkers) > 0

    def test_inject_rejects_out_of_mesh(self, small_cfg):
        sim = NocSimulator(small_cfg, engine="vector")
        with pytest.raises(Exception):
            sim.inject(
                Packet(kind=PacketKind.REQUEST, src=(99, 0), dst=(0, 0)),
                NetworkId.XY,
            )

    def test_load_latency_curve_matches(self):
        """engine="vector" sweeps all rates in one batched kernel; the
        curve must still equal the per-rate reference runs point for
        point."""
        cfg = SystemConfig(rows=6, cols=6)
        curves = {
            engine: measure_load_latency(
                cfg, rates=[0.02, 0.1], warm_cycles=30, seed=1, engine=engine
            )
            for engine in ENGINE_PAIR
        }
        assert curves["reference"].points == curves["vector"].points


class TestEngineState:
    """Observable per-simulator state, on both engines."""

    def test_idle_is_counter_based(self, small_cfg):
        for engine in ENGINE_PAIR:
            sim = NocSimulator(small_cfg, engine=engine)
            assert sim.idle()
            sim.inject(
                Packet(kind=PacketKind.REQUEST, src=(0, 0), dst=(0, 3)),
                NetworkId.XY,
            )
            sim.step()
            assert not sim.idle()
            sim.drain()
            assert sim.idle()
            assert sim._in_flight == 0

    def test_router_occupancy_and_forwarded(self, small_cfg):
        """The vector engine's flat per-router state matches the
        reference engine's Router objects cycle for cycle."""
        sims = {engine: NocSimulator(small_cfg, engine=engine)
                for engine in ENGINE_PAIR}
        for sim in sims.values():
            sim.inject(
                Packet(kind=PacketKind.RESPONSE, src=(0, 0), dst=(0, 2)),
                NetworkId.XY,
            )
            sim.step()
        ref, vec = sims["reference"], sims["vector"]
        # Injection and the first hop happen in the same cycle.
        assert vec.router_occupancy(NetworkId.XY, (0, 1)) == 1
        assert vec.router_occupancy(NetworkId.YX, (0, 1)) == 0
        assert ref.routers[NetworkId.XY][(0, 1)].occupancy() == 1
        assert ref.routers[NetworkId.YX][(0, 1)].occupancy() == 0
        for sim in sims.values():
            sim.drain()
        assert vec.router_occupancy(NetworkId.XY, (0, 1)) == 0
        # src, intermediate, and dst routers all forwarded the packet.
        for coord in ((0, 0), (0, 1), (0, 2)):
            assert vec.router_forwarded(NetworkId.XY, coord) == 1
            assert ref.routers[NetworkId.XY][coord].forwarded_packets == 1

    def test_faulty_source_injection_dropped(self, small_cfg):
        """A packet whose source is absent is refused and counted as a
        drop identically by both engines."""
        fmap = FaultMap(small_cfg, frozenset({(4, 4)}))
        for engine in ENGINE_PAIR:
            sim = NocSimulator(small_cfg, fault_map=fmap, engine=engine)
            ok = sim.inject(
                Packet(kind=PacketKind.REQUEST, src=(4, 4), dst=(0, 0)),
                NetworkId.XY,
            )
            assert not ok
            assert sim.dropped_unreachable == 1

    def test_injection_backpressure_requeues(self, small_cfg):
        """More offered packets than LOCAL credit: the surplus waits."""
        for engine in ENGINE_PAIR:
            sim = NocSimulator(small_cfg, fifo_depth=1, engine=engine)
            for _ in range(3):
                sim.inject(
                    Packet(kind=PacketKind.RESPONSE, src=(0, 0), dst=(5, 5)),
                    NetworkId.XY,
                )
            sim.step()
            assert sim.injected_count == 1
            assert len(sim._pending_injection_list()) == 2
            sim.drain()
            assert sim.injected_count == 3
            assert sim.report().delivered == 3


class TestBatchedTrials:
    """simulate_batch == B individual vector runs, field for field."""

    def _schedule(self, cfg, seed, rate=0.08, cycles=40):
        schedule = generate_traffic(
            cfg, TrafficPattern.UNIFORM, rate, cycles, seed=seed
        )
        return [
            (cycle, packet,
             NetworkId.XY if i % 2 == 0 else NetworkId.YX)
            for i, (cycle, packet) in enumerate(schedule)
        ]

    def test_batch_equals_individual_runs(self):
        cfg = SystemConfig(rows=6, cols=6)
        fmaps = [None, random_fault_map(cfg, 4, rng=17), None]
        seeds = [5, 6, 7]
        run_cycles = 40 + 200

        expected = []
        for fmap, seed in zip(fmaps, seeds):
            sim = NocSimulator(cfg, fault_map=fmap, engine="vector")
            for cycle, packet, net in self._schedule(cfg, seed):
                while sim.cycle < cycle:
                    sim.step()
                sim.inject(packet, net)
            sim.run(run_cycles - sim.cycle)
            expected.append(sim.report())

        batched = simulate_batch(
            cfg,
            [self._schedule(cfg, seed) for seed in seeds],
            fault_maps=fmaps,
            run_cycles=run_cycles,
            drain=False,
        )
        assert batched == expected

    def test_batch_drain_matches_individual_drain(self):
        cfg = SystemConfig(rows=6, cols=6)
        seeds = [1, 2]
        expected = []
        for seed in seeds:
            sim = NocSimulator(cfg, engine="vector")
            for cycle, packet, net in self._schedule(cfg, seed):
                while sim.cycle < cycle:
                    sim.step()
                sim.inject(packet, net)
            sim.drain(max_cycles=100_000)
            expected.append(sim.report())
        batched = simulate_batch(
            cfg, [self._schedule(cfg, seed) for seed in seeds]
        )
        assert batched == expected

    def test_batch_validates_inputs(self, small_cfg):
        with pytest.raises(NetworkError):
            BatchNocSimulator(small_cfg, [])
        with pytest.raises(NetworkError):
            simulate_batch(small_cfg, [[], []], fault_maps=[None])

    def test_trial_isolation_flags(self, small_cfg):
        """An idle trial retires while a loaded one keeps simulating."""
        sim = BatchNocSimulator(small_cfg, [None, None])
        sim.inject(
            1,
            Packet(kind=PacketKind.REQUEST, src=(0, 0), dst=(7, 7)),
            NetworkId.XY,
        )
        sim.step()
        assert sim.trial_idle(0)
        assert not sim.trial_idle(1)
        sim.drain(max_cycles=10_000)
        assert sim.idle()
        reports = sim.reports()
        assert reports[0].delivered == 0
        # request + its response both arrive on trial 1
        assert reports[1].delivered == 2
