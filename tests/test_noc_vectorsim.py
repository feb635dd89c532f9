"""Differential tests: the batched vector NoC engine.

``engine="vector"`` advances the whole mesh through a handful of numpy
kernel calls per cycle (lane-major arbitration over occupied FIFO lanes,
packet pools, credit-indexed injection).  None of that machinery may be
observable: every test here drives the vector engine over identical
traffic as the reference engine (the oracle) and requires bit-identical
reports, delivery order and telemetry.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.errors import ConfigError, NetworkError
from repro.noc.dualnetwork import NetworkId
from repro.noc.faults import FaultMap, random_fault_map
from repro.noc.loadlatency import measure_load_latency
from repro.noc.packets import (
    Packet,
    PacketKind,
    materialise_packets,
    reserve_packet_ids,
)
from repro.noc.routing import RoutingPolicy, build_port_lut, dor_port_codes
from repro.noc.simulator import ENGINES, NocSimulator
from repro.noc.vectorsim import _MAX_TILES, VectorNocSimulator
from repro.workloads.traffic import TrafficPattern, generate_traffic, traffic_schedule

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

    def test_oversized_mesh_rejected_before_allocation(self):
        """One tile past the arbitration-key bound is refused with the
        mesh shape and the largest supported tile count — before any
        per-lane array (hundreds of MB at this size) is allocated."""
        cfg = SystemConfig(rows=1, cols=_MAX_TILES + 1)
        tracemalloc.start()
        try:
            with pytest.raises(NetworkError) as err:
                NocSimulator(cfg, engine="vector")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        message = str(err.value)
        assert f"1x{_MAX_TILES + 1}" in message
        assert str(_MAX_TILES) in message
        assert peak < 1 << 20


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

    def test_fixed_window_report_mid_flight(self):
        """Stop after a fixed cycle count with packets still queued: the
        undrained report and telemetry must match too, not just the
        quiesced end state."""
        cfg = SystemConfig(rows=6, cols=6)
        fmap = random_fault_map(cfg, 4, rng=17)
        sims = {}
        for engine in ENGINE_PAIR:
            sim = NocSimulator(cfg, fault_map=fmap, engine=engine)
            traffic = generate_traffic(
                cfg, TrafficPattern.HOTSPOT, 0.3, 40, seed=6
            )
            for position, (cycle, packet) in enumerate(traffic):
                while sim.cycle < cycle:
                    sim.step()
                sim.inject(
                    packet, NetworkId.YX if position % 2 else NetworkId.XY
                )
            sim.run(60 - sim.cycle)
            sims[engine] = sim
        _assert_equivalent(sims["reference"], sims["vector"])
        assert sims["vector"].cycle == 60
        assert not sims["vector"].idle()

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
        """Each swept rate is one independent run on either engine; the
        vector curve must equal the reference curve point for point."""
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


def _fields(sim, base):
    """Delivered packets field for field, ids relative to ``base``."""
    return [
        (
            p.kind, p.src, p.dst, p.address, p.payload,
            p.packet_id - base,
            None if p.request_id is None else p.request_id - base,
            p.injected_cycle, p.delivered_cycle,
        )
        for p in sim.delivered_packets
    ]


class TestColumnEngine:
    """Array injection (``inject_many``) and column packet state."""

    CFG = SystemConfig(rows=6, cols=6)

    @pytest.mark.parametrize("engine", ENGINE_PAIR)
    @pytest.mark.parametrize(
        "src,dst,field",
        [([0, -1], [1, 2], "src"), ([0, 1], [2, 36], "dst"), ([36], [0], "src")],
    )
    def test_inject_many_rejects_off_mesh(self, engine, src, dst, field):
        sim = NocSimulator(self.CFG, engine=engine)
        with pytest.raises(ConfigError, match=field):
            sim.inject_many(np.array(src), np.array(dst), NetworkId.XY)
        assert sim.idle() and sim.dropped_unreachable == 0

    @pytest.mark.parametrize("engine", ENGINE_PAIR)
    def test_inject_many_rejects_ragged_slices(self, engine):
        sim = NocSimulator(self.CFG, engine=engine)
        with pytest.raises(NetworkError):
            sim.inject_many(np.array([0, 1]), np.array([2]), NetworkId.XY)

    def test_inject_many_faulty_endpoints_drop_alike(self):
        """Requests touching a faulty tile are counted as drops and keep
        their reserved ids, identically on both engines."""
        fmap = FaultMap(self.CFG, frozenset({(0, 1)}))
        fields = {}
        for engine in ENGINE_PAIR:
            sim = NocSimulator(self.CFG, fault_map=fmap, engine=engine)
            base = reserve_packet_ids(0)
            queued = sim.inject_many(
                np.array([0, 1, 2, 3]), np.array([30, 4, 1, 9]), NetworkId.YX
            )
            assert queued == 2
            assert sim.dropped_unreachable == 2
            sim.drain()
            fields[engine] = _fields(sim, base)
        assert fields["reference"] == fields["vector"]
        assert {f[5] for f in fields["vector"] if f[0] is PacketKind.REQUEST} == {0, 3}

    def test_vector_inject_leaves_callers_packet_unstamped(self):
        sim = NocSimulator(self.CFG, engine="vector")
        packet = Packet(kind=PacketKind.REQUEST, src=(0, 0), dst=(2, 3))
        sim.inject(packet, NetworkId.XY)
        sim.drain()
        assert packet.injected_cycle is None and packet.delivered_cycle is None
        delivered = sim.delivered_packets[0]
        assert delivered is not packet
        assert delivered.packet_id == packet.packet_id
        assert delivered.injected_cycle == 0 and delivered.delivered_cycle == 5

    def test_preset_injection_cycle_is_kept(self):
        """A packet that arrives already stamped keeps its stamp on
        admission, on both engines (the latency counts from it)."""
        latencies = {}
        for engine in ENGINE_PAIR:
            sim = NocSimulator(self.CFG, engine=engine)
            sim.run(5)
            packet = Packet(kind=PacketKind.RESPONSE, src=(0, 0), dst=(0, 3))
            packet.injected_cycle = 1
            sim.inject(packet, NetworkId.XY)
            sim.drain()
            latencies[engine] = sim.report().latencies
        assert latencies["reference"] == latencies["vector"] == [7]

    @staticmethod
    def _backlogged_run(sim, schedule, until, extra_src, extra_dst):
        """HOTSPOT schedule via inject_many, plus hand-made packets on
        every third cycle injected before and after the slice."""
        for cycle in range(sim.cycle, until):
            lo, hi = np.searchsorted(schedule.cycle, [cycle, cycle + 1])
            if cycle % 3 == 0:
                sim.inject(
                    Packet(
                        kind=PacketKind.REQUEST, src=extra_src, dst=extra_dst,
                        address=0x5A5A, payload=2**64 - 1,
                    ),
                    NetworkId.XY,
                )
            sim.inject_many(schedule.src[lo:hi], schedule.dst[lo:hi], NetworkId.XY)
            if cycle % 3 == 0:
                sim.inject(
                    Packet(
                        kind=PacketKind.RESPONSE, src=extra_dst, dst=extra_src,
                        address=1, payload=7,
                    ),
                    NetworkId.YX,
                )
            sim.step()

    def _setup(self):
        fmap = random_fault_map(self.CFG, 2, rng=5)
        hotspot = (self.CFG.rows // 2, self.CFG.cols // 2)
        assert not fmap.is_faulty(hotspot)
        schedule = traffic_schedule(self.CFG, TrafficPattern.HOTSPOT, 0.4, 30, seed=8)
        # Both DoR paths between (0, 0) and the hotspot avoid the faults.
        assert fmap.faulty == {(3, 5), (4, 4)}
        return fmap, schedule, (0, 0), hotspot

    def test_mixed_injection_under_backlog(self):
        fmap, schedule, extra_src, extra_dst = self._setup()
        fields, reports, backlogs = {}, {}, {}
        for engine in ENGINE_PAIR:
            sim = NocSimulator(self.CFG, fault_map=fmap, engine=engine)
            base = reserve_packet_ids(0)
            self._backlogged_run(sim, schedule, 15, extra_src, extra_dst)
            # Admission depends only on each (network, source) queue's
            # order; compare the queues, not one engine's flattening.
            backlogs[engine] = sorted(
                ((net.value, p.src, p.packet_id - base)
                 for p, net in sim._pending_injection_list()),
                key=lambda entry: entry[:2],
            )
            self._backlogged_run(sim, schedule, 30, extra_src, extra_dst)
            sim.drain()
            reports[engine] = sim.report()
            fields[engine] = _fields(sim, base)
        assert backlogs["vector"]     # a LOCAL-FIFO backlog formed
        assert backlogs["reference"] == backlogs["vector"]
        assert reports["reference"] == reports["vector"]
        assert fields["reference"] == fields["vector"]
        # Every response names a request this run injected.
        requests = {f[5] for f in fields["vector"] if f[0] is PacketKind.REQUEST}
        answered = [f[6] for f in fields["vector"] if f[6] is not None]
        assert answered and set(answered) <= requests
        assert any(f[4] == 2**64 - 1 and f[3] == 0x5A5A for f in fields["vector"])

    def test_save_mid_backlog_on_vector_resume_on_reference(self, tmp_path):
        fmap, schedule, extra_src, extra_dst = self._setup()
        whole = NocSimulator(self.CFG, fault_map=fmap, engine="vector")
        base_whole = reserve_packet_ids(0)
        self._backlogged_run(whole, schedule, 30, extra_src, extra_dst)
        whole.drain()

        first = NocSimulator(self.CFG, fault_map=fmap, engine="vector")
        base_split = reserve_packet_ids(0)
        self._backlogged_run(first, schedule, 15, extra_src, extra_dst)
        assert first._backlog > 0
        path = tmp_path / "backlog.npz"
        first.save_state(path)
        second = NocSimulator.load_state(path, engine="reference")
        self._backlogged_run(second, schedule, 30, extra_src, extra_dst)
        second.drain()

        assert second.report() == whole.report()
        assert second.link_stalls == whole.link_stalls
        assert _fields(second, base_split) == _fields(whole, base_whole)

    def test_untraced_vector_run_noc_builds_no_packet(self):
        """The CLI's vector path keeps traffic in arrays end to end: no
        Packet is built.  Packets come from their dataclass ``__init__``
        or, slot-direct, from ``materialise_packets``; a profiler hook
        counts calls to either (the reference run shows it sees them)."""
        from repro.cli import run_noc

        constructors = {Packet.__init__.__code__, materialise_packets.__code__}
        calls = {"vector": 0, "reference": 0}
        for engine in calls:

            def probe(frame, event, arg, engine=engine):
                if event == "call" and frame.f_code in constructors:
                    calls[engine] += 1

            sys.setprofile(probe)
            try:
                run_noc(self.CFG, cycles=40, rate=0.3, seed=3, faults=2, engine=engine)
            finally:
                sys.setprofile(None)
        assert calls["vector"] == 0
        assert calls["reference"] > 0


def _observed(sim, base):
    """Everything ``run``/``drain`` must leave as per-cycle steps do:
    report, delivered packets and FIFO contents field for field (ids
    relative to ``base``), round-robin and forwarded state, stalls and
    the cycle; on the vector engine also the raw ring-buffer heads."""
    state = sim._snapshot_engine_state()
    mesh = getattr(sim, "_mesh", None)
    heads = None if mesh is None else mesh.head_f.tolist()
    fifos = [
        [
            [
                [(p.kind, p.src, p.dst, p.packet_id - base, p.injected_cycle)
                 for p in queue]
                for queue in tile
            ]
            for tile in net
        ]
        for net in state["fifos"]
    ]
    return (
        sim.report(), _fields(sim, base), fifos, state["rr"], state["fwd"],
        sim.link_stalls, sim.cycle, heads,
    )


def _step_drain(sim, max_cycles=100_000):
    """``drain`` as the per-cycle loop it must match."""
    for _ in range(max_cycles):
        if sim.idle():
            return
        sim.step()
    raise NetworkError(f"network failed to drain within {max_cycles} cycles")


def _collective_sim(coll, engine, fifo_depth, per_cycle):
    """Drive a compiled collective per cycle, or as run_noc_collective does."""
    sim = NocSimulator(
        coll.config, coll.fault_map, fifo_depth=fifo_depth, engine=engine
    )
    base = reserve_packet_ids(0)
    schedule = coll.packet_schedule()
    for cycle, packet, network in schedule:
        if per_cycle:
            while sim.cycle < cycle:
                sim.step()
        else:
            sim.run(cycle - sim.cycle)
        sim.inject(packet, network)
    if per_cycle:
        while sim.cycle <= coll.last_cycle:
            sim.step()
        _step_drain(sim)
    else:
        sim.run(coll.last_cycle + 1 - sim.cycle)
        sim.drain()
    return sim, base


@pytest.fixture
def window_count(monkeypatch):
    """Count the contention-free windows the vector engine applies."""
    from repro.noc.vectorsim import _MeshState

    applied = []
    kernel = _MeshState.fast_forward

    def counting(self, limit):
        window = kernel(self, limit)
        if window is not None:
            applied.append(window[0])
        return window

    monkeypatch.setattr(_MeshState, "fast_forward", counting)
    return applied


class TestEventHorizonStepping:
    """``run``/``drain`` skip idle cycles and fast-forward contention-free
    windows; every observable must equal plain per-cycle stepping."""

    @pytest.mark.parametrize(
        "rows,faults,pattern,ranks",
        [
            (8, 3, "ring-all-reduce", 16),
            (8, 3, "all-to-all", 8),
            (8, 3, "broadcast", 16),
            (32, 8, "ring-all-reduce", 64),
            (32, 8, "all-to-all", 32),
            (32, 8, "broadcast", 64),
        ],
    )
    def test_collectives_match_per_cycle(
        self, rows, faults, pattern, ranks, window_count
    ):
        from repro.workloads.collectives import CollectiveSpec, compile_noc

        cfg = SystemConfig(rows=rows, cols=rows)
        fmap = random_fault_map(cfg, faults, rng=3)
        spec = CollectiveSpec(pattern, seed=3, ranks=ranks, segments=4)
        coll = compile_noc(cfg, fmap, spec)
        stepped, base_s = _collective_sim(coll, "vector", 4, per_cycle=True)
        assert not window_count
        fast, base_f = _collective_sim(coll, "vector", 4, per_cycle=False)
        assert window_count, "no window was fast-forwarded"
        assert _observed(fast, base_f) == _observed(stepped, base_s)

    @pytest.mark.parametrize("fifo_depth", [1, 2, 4])
    def test_fifo_depths(self, fifo_depth, window_count):
        from repro.workloads.collectives import CollectiveSpec, compile_noc

        cfg = SystemConfig(rows=8, cols=8)
        coll = compile_noc(
            cfg, random_fault_map(cfg, 3, rng=5),
            CollectiveSpec("ring-all-reduce", seed=1, ranks=16, segments=4),
        )
        stepped, base_s = _collective_sim(coll, "vector", fifo_depth, True)
        fast, base_f = _collective_sim(coll, "vector", fifo_depth, False)
        assert _observed(fast, base_f) == _observed(stepped, base_s)
        # Depth 1 stalls every hop behind a full FIFO: no window applies.
        assert bool(window_count) == (fifo_depth > 1)

    def test_run_noc_collective_report(self):
        from repro.workloads.collectives import (
            CollectiveSpec,
            compile_noc,
            run_noc_collective,
        )

        cfg = SystemConfig(rows=8, cols=8)
        coll = compile_noc(
            cfg, random_fault_map(cfg, 3, rng=2),
            CollectiveSpec("all-to-all", seed=2, ranks=8),
        )
        stepped, _ = _collective_sim(coll, "vector", 4, per_cycle=True)
        for engine in ENGINE_PAIR:
            report, checks = run_noc_collective(coll, engine=engine)
            assert report == stepped.report()
            assert checks > 0

    @pytest.mark.parametrize("fault_seed", [1, 2])
    def test_request_traffic_responses_cap_windows(self, fault_seed, window_count):
        """Uniform REQUESTs at 2%: deliveries book responses, in-flight
        drops hit faulty tiles, and drive_schedule batches idle stretches."""
        from repro.workloads.traffic import drive_schedule

        cfg = SystemConfig(rows=8, cols=8)
        fmap = random_fault_map(cfg, 4, rng=fault_seed)
        schedule = traffic_schedule(cfg, TrafficPattern.UNIFORM, 0.02, 300, seed=fault_seed)
        observed = []
        for per_cycle in (True, False):
            sim = NocSimulator(cfg, fault_map=fmap, engine="vector")
            base = reserve_packet_ids(0)
            drive_schedule(sim, schedule, 300, step=sim.step if per_cycle else None)
            if per_cycle:
                _step_drain(sim)
            else:
                sim.drain()
            observed.append(_observed(sim, base))
        assert window_count
        assert observed[0] == observed[1]
        report = observed[0][0]
        assert report.responses_delivered > 0 and report.dropped_in_flight > 0

    def test_dor_path_into_faulty_tile_drops_in_flight(self, window_count):
        cfg = SystemConfig(rows=8, cols=8)
        fmap = FaultMap(cfg, frozenset({(0, 5)}))
        observed = []
        for per_cycle in (True, False):
            sim = NocSimulator(cfg, fault_map=fmap, engine="vector")
            base = reserve_packet_ids(0)
            sim.inject(Packet(kind=PacketKind.RESPONSE, src=(0, 0), dst=(0, 7)),
                       NetworkId.XY)
            if per_cycle:
                for _ in range(20):
                    sim.step()
            else:
                sim.run(20)
            observed.append(_observed(sim, base))
            assert sim.dropped_in_flight == 1 and sim.idle()
        assert observed[0] == observed[1]
        # Admitted and one hop east by the first step; the window then
        # moves it to (0, 4) and stops short of the dead link, so the
        # drop is a step.
        assert window_count == [3]

    def test_contended_output_falls_back_to_step(self, small_cfg):
        """Two packets that want one LOCAL port in the same cycle: no
        window; the step arbitrates and one packet waits a cycle."""
        observed = []
        for per_cycle in (True, False):
            sim = NocSimulator(small_cfg, engine="vector")
            base = reserve_packet_ids(0)
            for src in ((0, 1), (2, 3)):
                sim.inject(Packet(kind=PacketKind.RESPONSE, src=src, dst=(0, 3)),
                           NetworkId.XY)
            sim.step()              # admission; both now one hop away
            if not per_cycle:
                assert sim._mesh.fast_forward(100) is None
                sim.drain()
            else:
                _step_drain(sim)
            observed.append(_observed(sim, base))
        assert observed[0] == observed[1]
        assert sorted(p.delivered_cycle for p in sim.delivered_packets) == [2, 3]

    def test_resume_after_window(self, tmp_path, window_count):
        """Checkpoint the moment a window ends mid-flight, resume, finish:
        the same as one uninterrupted per-cycle run."""
        from repro.workloads.collectives import CollectiveSpec, compile_noc

        cfg = SystemConfig(rows=8, cols=8)
        coll = compile_noc(
            cfg, random_fault_map(cfg, 3, rng=3),
            CollectiveSpec("all-to-all", seed=4, ranks=8),
        )
        whole, base_w = _collective_sim(coll, "vector", 4, per_cycle=True)

        split_base = reserve_packet_ids(0)
        schedule = coll.packet_schedule()
        halt = 6                    # inside phase 0's flight
        sim = NocSimulator(cfg, coll.fault_map, engine="vector")
        for cycle, packet, network in (e for e in schedule if e[0] < halt):
            sim.run(cycle - sim.cycle)
            sim.inject(packet, network)
        window_count.clear()
        sim.run(halt - sim.cycle)
        assert window_count and not sim.idle()
        path = tmp_path / "window.npz"
        sim.save_state(path)
        resumed = NocSimulator.load_state(path)
        assert resumed.cycle == halt
        for cycle, packet, network in (e for e in schedule if e[0] >= halt):
            resumed.run(cycle - resumed.cycle)
            resumed.inject(packet, network)
        resumed.run(coll.last_cycle + 1 - resumed.cycle)
        resumed.drain()
        # Ring-buffer heads are not checkpointed (a restore refills FIFOs
        # from slot 0), so they are left out here.
        assert _observed(resumed, split_base)[:-1] == _observed(whole, base_w)[:-1]

    @pytest.mark.parametrize("engine", ENGINE_PAIR)
    def test_drain_out_of_budget_matches(self, engine):
        """A saturated drain (as a load-latency knee) gives up with the
        same error, cycle and report on both paths."""
        cfg = SystemConfig(rows=6, cols=6)
        schedule = traffic_schedule(cfg, TrafficPattern.HOTSPOT, 0.5, 40, seed=1)
        from repro.workloads.traffic import drive_schedule

        observed = []
        for per_cycle in (True, False):
            sim = NocSimulator(cfg, engine=engine)
            base = reserve_packet_ids(0)
            drive_schedule(sim, schedule, 40, step=sim.step if per_cycle else None)
            with pytest.raises(NetworkError, match="within 25 cycles"):
                if per_cycle:
                    _step_drain(sim, 25)
                else:
                    sim.drain(max_cycles=25)
            observed.append(_observed(sim, base))
        assert observed[0] == observed[1]
        assert observed[0][-2] == 65

    @pytest.mark.parametrize("engine", ENGINE_PAIR)
    def test_idle_skip(self, engine, small_cfg):
        sim = NocSimulator(small_cfg, engine=engine)
        sim.run(1_000_000)
        assert sim.cycle == 1_000_000 and sim.idle()
        sim.inject(Packet(kind=PacketKind.REQUEST, src=(0, 0), dst=(0, 2)),
                   NetworkId.XY)
        sim.drain()
        # The request takes 2 hops and its LOCAL grant; the response is
        # released 2 cycles after that delivery and takes as long.
        assert [p.delivered_cycle - 1_000_000 for p in sim.delivered_packets] == [2, 6]
        assert sim.cycle == 1_000_007

    @pytest.mark.parametrize("engine", ENGINE_PAIR)
    def test_hooks_and_telemetry_see_every_cycle(self, engine, small_cfg):
        """An ``on_step`` checker or live telemetry keeps the per-cycle
        path: one step (and one ``noc.step`` span) per simulated cycle."""
        from repro.obs import Telemetry

        class StepCounter:
            steps = 0

            def on_step(self, sim):
                self.steps += 1

        def drive(**kwargs):
            sim = NocSimulator(small_cfg, engine=engine, **kwargs)
            sim.inject(Packet(kind=PacketKind.RESPONSE, src=(0, 0), dst=(5, 5)),
                       NetworkId.XY)
            sim.run(30)
            sim.inject(Packet(kind=PacketKind.REQUEST, src=(1, 0), dst=(6, 5)),
                       NetworkId.XY)
            sim.drain()
            return sim.cycle

        counter = StepCounter()
        assert drive(checkers=[counter]) == counter.steps > 30
        tel = Telemetry()
        cycles = drive(telemetry=tel)
        spans = [e for e in tel.tracer.events if e.get("name") == "noc.step"]
        assert len(spans) == cycles == counter.steps
