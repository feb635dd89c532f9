"""Tests for the cycle-level NoC simulator (packets, routers, simulation)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.errors import NetworkError
from repro.noc.dualnetwork import NetworkId
from repro.noc.faults import FaultMap
from repro.noc.packets import PACKET_BITS, Packet, PacketKind
from repro.noc.router import InputFifo, Port, Router, port_toward
from repro.noc.routing import RoutingPolicy
from repro.noc.simulator import NocSimulator, SimulationReport, packet_next_coord
from repro.workloads.traffic import TrafficPattern, generate_traffic

coords8 = st.tuples(st.integers(0, 7), st.integers(0, 7))


class TestPackets:
    def test_packet_is_100_bits(self):
        assert PACKET_BITS == 100

    @given(
        src=coords8,
        dst=coords8,
        address=st.integers(0, 2**15 - 1),
        payload=st.integers(0, 2**64 - 1),
        kind=st.sampled_from(list(PacketKind)),
    )
    def test_encode_decode_roundtrip(self, src, dst, address, payload, kind):
        packet = Packet(kind=kind, src=src, dst=dst, address=address, payload=payload)
        word = packet.encode(cols=8)
        assert 0 <= word < (1 << PACKET_BITS)
        decoded = Packet.decode(word, cols=8)
        assert decoded.kind == kind
        assert decoded.src == src
        assert decoded.dst == dst
        assert decoded.address == address
        assert decoded.payload == payload

    def test_oversize_fields_rejected(self):
        with pytest.raises(NetworkError):
            Packet(kind=PacketKind.REQUEST, src=(0, 0), dst=(0, 1), address=1 << 15)
        with pytest.raises(NetworkError):
            Packet(kind=PacketKind.REQUEST, src=(0, 0), dst=(0, 1), payload=1 << 64)

    def test_latency_requires_both_stamps(self):
        packet = Packet(kind=PacketKind.REQUEST, src=(0, 0), dst=(1, 1))
        assert packet.latency is None
        packet.injected_cycle = 3
        packet.delivered_cycle = 10
        assert packet.latency == 7


class TestRouter:
    def test_output_port_follows_dor(self):
        router = Router((2, 2), RoutingPolicy.XY)
        east = Packet(kind=PacketKind.REQUEST, src=(2, 2), dst=(0, 5))
        assert router.output_port(east) is Port.EAST     # column first in XY
        local = Packet(kind=PacketKind.REQUEST, src=(0, 0), dst=(2, 2))
        assert router.output_port(local) is Port.LOCAL

    def test_yx_router_corrects_row_first(self):
        router = Router((2, 2), RoutingPolicy.YX)
        packet = Packet(kind=PacketKind.REQUEST, src=(2, 2), dst=(0, 5))
        assert router.output_port(packet) is Port.NORTH

    def test_port_toward(self):
        assert port_toward((1, 1), (0, 1)) is Port.NORTH
        assert port_toward((1, 1), (1, 2)) is Port.EAST
        with pytest.raises(NetworkError):
            port_toward((1, 1), (3, 3))

    def test_fifo_backpressure(self):
        fifo = InputFifo(depth=2)
        p = Packet(kind=PacketKind.REQUEST, src=(0, 0), dst=(1, 1))
        fifo.push(p)
        fifo.push(p)
        assert fifo.full
        with pytest.raises(NetworkError):
            fifo.push(p)

    def test_fifo_depth_must_be_positive(self):
        with pytest.raises(NetworkError, match="FIFO depth"):
            Router((1, 1), RoutingPolicy.XY, fifo_depth=0)

    def test_only_mesh_ports_have_a_neighbour(self):
        assert packet_next_coord((2, 2), Port.NORTH) == (1, 2)
        assert packet_next_coord((2, 2), Port.SOUTH) == (3, 2)
        assert packet_next_coord((2, 2), Port.WEST) == (2, 1)
        assert packet_next_coord((2, 2), Port.EAST) == (2, 3)
        with pytest.raises(NetworkError, match="LOCAL"):
            packet_next_coord((2, 2), Port.LOCAL)

    def test_round_robin_rotates(self):
        router = Router((1, 1), RoutingPolicy.XY)
        # Two packets from different inputs contending for EAST.
        p = Packet(kind=PacketKind.REQUEST, src=(1, 0), dst=(1, 3))
        q = Packet(kind=PacketKind.REQUEST, src=(0, 1), dst=(1, 3))
        router.accept(Port.WEST, p)
        router.accept(Port.NORTH, q)
        winners = router.arbitrate()
        out_port, (in_port, _) = next(iter(winners.items()))
        assert out_port is Port.EAST
        router.grant(out_port, in_port)
        # The other input must win next.
        winners2 = router.arbitrate()
        _, (in_port2, _) = next(iter(winners2.items()))
        assert in_port2 != in_port


class TestSimulator:
    def test_single_packet_latency(self, small_cfg):
        sim = NocSimulator(small_cfg)
        packet = Packet(kind=PacketKind.REQUEST, src=(0, 0), dst=(0, 3))
        sim.inject(packet, NetworkId.XY)
        sim.drain()
        assert packet.latency is not None
        assert packet.latency >= 3      # at least one cycle per hop

    def test_request_generates_response_on_complement(self, small_cfg):
        sim = NocSimulator(small_cfg)
        sim.inject(
            Packet(kind=PacketKind.REQUEST, src=(1, 1), dst=(6, 6)), NetworkId.XY
        )
        sim.drain()
        report = sim.report()
        assert report.delivered == 2
        assert report.responses_delivered == 1
        assert report.per_network_delivered[NetworkId.XY] == 1
        assert report.per_network_delivered[NetworkId.YX] == 1

    def test_negative_cycle_count_rejected(self, small_cfg):
        sim = NocSimulator(small_cfg)
        with pytest.raises(NetworkError, match="non-negative"):
            sim.run(-1)
        sim.run(0)
        assert sim.cycle == 0

    @pytest.mark.parametrize("engine", ["reference", "vector"])
    def test_drain_gives_up_at_its_cycle_limit(self, small_cfg, engine):
        """A drain that cannot finish raises instead of returning with
        traffic still in flight."""
        sim = NocSimulator(small_cfg, engine=engine)
        sim.inject(
            Packet(kind=PacketKind.REQUEST, src=(0, 0), dst=(7, 7)), NetworkId.XY
        )
        with pytest.raises(NetworkError, match="failed to drain within 3 cycles"):
            sim.drain(max_cycles=3)
        assert not sim.idle()
        sim.drain()
        assert sim.report().delivered == 2

    def test_faulty_endpoint_dropped(self, small_cfg):
        fmap = FaultMap(small_cfg, frozenset({(3, 3)}))
        sim = NocSimulator(small_cfg, fault_map=fmap)
        ok = sim.inject(
            Packet(kind=PacketKind.REQUEST, src=(0, 0), dst=(3, 3)), NetworkId.XY
        )
        assert not ok
        assert sim.report().dropped_unreachable == 1

    def test_many_packets_all_delivered(self, small_cfg):
        sim = NocSimulator(small_cfg)
        traffic = generate_traffic(
            small_cfg, TrafficPattern.UNIFORM, injection_rate=0.05,
            cycles=50, seed=2,
        )
        for cycle, packet in traffic:
            sim.inject(packet, NetworkId.XY)
        sim.drain()
        report = sim.report()
        # Responses are re-injected, so injected == delivered and half of
        # everything delivered is a response.
        assert report.delivered == report.injected
        assert report.responses_delivered == report.delivered // 2
        assert report.mean_latency > 0

    def test_deadlock_free_under_heavy_transpose(self):
        cfg = SystemConfig(rows=6, cols=6)
        sim = NocSimulator(cfg, fifo_depth=2)
        traffic = generate_traffic(
            cfg, TrafficPattern.TRANSPOSE, injection_rate=0.3, cycles=40, seed=3
        )
        for _, packet in traffic:
            sim.inject(packet, NetworkId.XY)
        sim.drain(max_cycles=20_000)    # raises on deadlock/livelock
        assert sim.idle()

    def test_hotspot_congestion_raises_latency(self):
        cfg = SystemConfig(rows=6, cols=6)
        quiet = NocSimulator(cfg)
        busy = NocSimulator(cfg)
        low = generate_traffic(cfg, TrafficPattern.HOTSPOT, 0.02, 60, seed=4)
        high = generate_traffic(cfg, TrafficPattern.HOTSPOT, 0.4, 60, seed=4)
        for _, p in low:
            quiet.inject(p, NetworkId.XY)
        for _, p in high:
            busy.inject(p, NetworkId.XY)
        quiet.drain(max_cycles=50_000)
        busy.drain(max_cycles=50_000)
        assert busy.report().mean_latency > quiet.report().mean_latency

    def test_report_throughput(self, small_cfg):
        sim = NocSimulator(small_cfg)
        for col in range(1, 8):
            sim.inject(
                Packet(kind=PacketKind.REQUEST, src=(0, 0), dst=(0, col)),
                NetworkId.XY,
            )
        sim.drain()
        report = sim.report()
        assert report.throughput_packets_per_cycle > 0
        assert report.p99_latency >= report.mean_latency


class TestLatencyPercentile:
    """Regression tests for SimulationReport.latency_percentile / p99."""

    def _report(self, latencies):
        return SimulationReport(
            cycles=100,
            injected=len(latencies),
            delivered=len(latencies),
            responses_delivered=0,
            dropped_unreachable=0,
            latencies=list(latencies),
        )

    def test_empty_returns_zero_instead_of_raising(self):
        report = self._report([])
        assert report.p99_latency == 0.0
        assert report.latency_percentile(50) == 0.0

    def test_single_sample(self):
        assert self._report([7]).p99_latency == 7.0

    def test_two_samples_interpolates(self):
        # p99 of [10, 20] is not simply max(): rank 0.99 between them.
        report = self._report([10, 20])
        assert report.p99_latency == pytest.approx(19.9)

    @given(
        latencies=st.lists(st.integers(1, 500), min_size=1, max_size=40),
        q=st.sampled_from([0, 25, 50, 90, 99, 100]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy_linear_method(self, latencies, q):
        import numpy as np

        report = self._report(latencies)
        assert report.latency_percentile(q) == pytest.approx(
            float(np.percentile(latencies, q))
        )

    def test_out_of_range_q_raises(self):
        report = self._report([1, 2, 3])
        with pytest.raises(NetworkError):
            report.latency_percentile(101)
        with pytest.raises(NetworkError):
            report.latency_percentile(-1)


class TestPercentileCache:
    """SimulationReport caches its sorted latencies; report() reuses it."""

    def test_percentile_values_unchanged_by_cache(self):
        latencies = [9, 1, 5, 3, 7]
        report = SimulationReport(
            cycles=10, injected=5, delivered=5, responses_delivered=0,
            dropped_unreachable=0, latencies=list(latencies),
        )
        first = report.latency_percentile(50)
        assert report._sorted_latencies == sorted(latencies)
        # Cached object is reused on the second query.
        cached = report._sorted_latencies
        assert report.latency_percentile(50) == first == 5.0
        assert report._sorted_latencies is cached
        # Growing the latency list invalidates by length.
        report.latencies.append(11)
        assert report.latency_percentile(100) == 11.0

    def test_cache_excluded_from_equality(self):
        def make():
            return SimulationReport(
                cycles=10, injected=2, delivered=2, responses_delivered=0,
                dropped_unreachable=0, latencies=[4, 2],
            )

        a, b = make(), make()
        a.latency_percentile(99)    # populate a's cache only
        assert a == b

    @pytest.mark.parametrize("engine", ["reference", "vector"])
    def test_simulator_report_reuses_sort(self, small_cfg, engine):
        sim = NocSimulator(small_cfg, engine=engine)
        for col in range(1, 6):
            sim.inject(
                Packet(kind=PacketKind.RESPONSE, src=(0, 0), dst=(0, col)),
                NetworkId.XY,
            )
        sim.drain()
        first = sim.report()
        assert first.p99_latency > 0
        second = sim.report()
        # Nothing new delivered: the sorted order carries over.
        assert second._sorted_latencies is first._sorted_latencies
        assert second == first


def _observed(sim):
    """Report, deliveries, router state, stalls and cycle of one run."""
    state = sim._snapshot_engine_state()
    return (
        sim.report(),
        [(p.kind, p.src, p.dst, p.injected_cycle, p.delivered_cycle)
         for p in sim.delivered_packets],
        [[[len(q) for q in tile] for tile in net] for net in state["fifos"]],
        state["rr"],
        state["fwd"],
        sim.link_stalls,
        sim.cycle,
    )


class TestRunSkipsIdleCycles:
    """The object model's ``run``/``drain`` jump over cycles with nothing
    buffered or queued; the result must equal stepping every cycle."""

    @staticmethod
    def _drive(cfg, fault_map, traffic, per_cycle, horizon, max_cycles=100_000):
        """Offer ``traffic``, advance to ``horizon``, drain; returns the
        simulator and the drain's error message (None when it drained)."""
        sim = NocSimulator(cfg, fault_map=fault_map)
        for cycle, packet in traffic:
            if per_cycle:
                while sim.cycle < cycle:
                    sim.step()
            else:
                sim.run(cycle - sim.cycle)
            sim.inject(packet, NetworkId.XY)
        if per_cycle:
            while sim.cycle < horizon:
                sim.step()
            for _ in range(max_cycles):
                if sim.idle():
                    return sim, None
                sim.step()
            return sim, f"network failed to drain within {max_cycles} cycles"
        sim.run(horizon - sim.cycle)
        try:
            sim.drain(max_cycles=max_cycles)
        except NetworkError as exc:
            return sim, str(exc)
        return sim, None

    @pytest.mark.parametrize(
        "pattern,rate,cycles,max_cycles",
        [
            (TrafficPattern.UNIFORM, 0.005, 300, 100_000),
            (TrafficPattern.UNIFORM, 0.02, 300, 100_000),
            # Saturated: the drain runs out of cycles on both paths.
            (TrafficPattern.HOTSPOT, 0.4, 40, 15),
        ],
    )
    def test_requests_match_per_cycle(
        self, small_cfg, pattern, rate, cycles, max_cycles
    ):
        from repro.noc.faults import random_fault_map

        fmap = random_fault_map(small_cfg, 4, rng=2)
        runs = [
            self._drive(
                small_cfg, fmap,
                generate_traffic(small_cfg, pattern, rate, cycles, seed=5),
                per_cycle, cycles + 20, max_cycles,
            )
            for per_cycle in (True, False)
        ]
        (stepped, error), (skipped, skip_error) = runs
        assert _observed(skipped) == _observed(stepped)
        assert skip_error == error
        assert (error is None) == (max_cycles > 15)
        assert stepped.report().responses_delivered > 0

    def test_collective_matches_per_cycle(self, small_cfg):
        from repro.noc.faults import random_fault_map
        from repro.workloads.collectives import (
            CollectiveSpec,
            compile_noc,
            run_noc_collective,
        )

        coll = compile_noc(
            small_cfg, random_fault_map(small_cfg, 3, rng=1),
            CollectiveSpec("ring-all-reduce", seed=1, ranks=16, segments=2),
        )
        sim = NocSimulator(small_cfg, coll.fault_map)
        for cycle, packet, network in coll.packet_schedule():
            while sim.cycle < cycle:
                sim.step()
            sim.inject(packet, network)
        while not sim.idle() or sim.cycle <= coll.last_cycle:
            sim.step()
        report, checks = run_noc_collective(coll, engine="reference")
        assert report == sim.report()
        assert checks > 0
