"""Cycle-level simulator of the dual-network waferscale NoC.

Ties together :mod:`.router`, :mod:`.packets`, :mod:`.dualnetwork` and a
fault map into a steppable model:

* two router grids (X-Y and Y-X networks), faulty tiles absent;
* per-cycle: arbitrate every router, move winners across links honouring
  downstream credits, deliver LOCAL winners;
* request/response mode: when a REQUEST is delivered, the destination tile
  issues the RESPONSE on the complementary network after a service delay
  (the shared-memory access), matching the hardware behaviour baked into
  the paper's routers;
* statistics: delivered counts, latency distribution, per-network load.

The simulator is deliberately packet-per-cycle (one flit per packet, one
hop per cycle, FIFO depth in packets) — the same abstraction level the
paper uses to discuss its network.

Telemetry
---------
Pass a :class:`~repro.obs.telemetry.Telemetry` (or install one as the
ambient telemetry) to record per-cycle queue-occupancy histograms, stall
and backpressure counters, per-network load, a latency histogram, and a
trace with one span per :meth:`step` epoch plus one span per delivered
packet on its destination tile's track — all timestamped in *simulation
cycles*.  Without an enabled telemetry the instrumentation is a single
``is None`` check and the simulation is bit-identical to the
un-instrumented model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from ..config import Coord, SystemConfig
from ..errors import ConfigError, NetworkError
from ..fastpath import VECTOR_ENGINE_KINDS
from ..obs.telemetry import Telemetry, resolve_telemetry
from .dualnetwork import NetworkId
from .faults import FaultMap
from .packets import Packet, PacketKind, materialise_packets, reserve_packet_ids
from .router import Port, Router, port_toward
from .routing import RoutingPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..verify.invariants import InvariantChecker

#: Histogram buckets for packet latency in cycles.
LATENCY_BUCKETS = tuple(float(2**i) for i in range(0, 14))

#: Histogram buckets for whole-network queue occupancy (packets).
OCCUPANCY_BUCKETS = tuple(float(2**i) for i in range(0, 15))

#: Valid values for :class:`NocSimulator`'s ``engine`` argument.
ENGINES = VECTOR_ENGINE_KINDS

#: Port -> integer code in ``list(Port)`` order (N=0, S=1, W=2, E=3, LOCAL=4),
#: the encoding checker hooks and the vector engine share.
PORT_CODE = {port: code for code, port in enumerate(Port)}


@dataclass(slots=True)
class SimulationReport:
    """Aggregate results of one simulation run."""

    cycles: int
    injected: int
    delivered: int
    responses_delivered: int
    dropped_unreachable: int
    latencies: list[int] = field(default_factory=list)
    per_network_delivered: dict[NetworkId, int] = field(default_factory=dict)
    # Conservation accounting: in-flight drops (faulty links) are the only
    # ``dropped_unreachable`` entries that were ever injected, and
    # ``in_flight`` is what is still buffered at report time.  Together
    # they make flit conservation checkable from the report alone.
    dropped_in_flight: int = 0
    in_flight: int = 0
    # Lazily computed sorted view of ``latencies``; excluded from
    # equality/repr so reports stay comparable field-for-field.
    _sorted_latencies: list[int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def mean_latency(self) -> float:
        """Mean injection-to-delivery latency in cycles."""
        return float(np.mean(self.latencies)) if self.latencies else 0.0

    def _ordered(self) -> list[int]:
        """Sorted latencies, cached after the first percentile query.

        The cache is invalidated by length: appending to ``latencies``
        after a query triggers a re-sort on the next one.
        """
        cached = self._sorted_latencies
        if cached is None or len(cached) != len(self.latencies):
            cached = sorted(self.latencies)
            self._sorted_latencies = cached
        return cached

    def latency_percentile(self, q: float) -> float:
        """Linear-interpolated latency percentile (``q`` in 0..100).

        Matches :func:`numpy.percentile`'s default (linear) method at
        every sample count — with ``n`` samples the rank ``(n-1)*q/100``
        is interpolated between the two nearest order statistics, so a
        two-sample p99 is *not* simply the maximum — and returns ``0.0``
        for an empty delivered set instead of raising.  The sorted order
        is computed once and cached, so repeated percentile queries on
        one report cost O(1) after the first.
        """
        if not 0 <= q <= 100:
            raise NetworkError("percentile must be in [0, 100]")
        if not self.latencies:
            return 0.0
        ordered = self._ordered()
        rank = (len(ordered) - 1) * (q / 100.0)
        lower = int(rank)
        fraction = rank - lower
        if fraction == 0.0 or lower + 1 >= len(ordered):
            return float(ordered[lower])
        return float(
            ordered[lower] + (ordered[lower + 1] - ordered[lower]) * fraction
        )

    @property
    def p99_latency(self) -> float:
        """99th-percentile latency in cycles (0.0 when nothing delivered)."""
        return self.latency_percentile(99.0)

    @property
    def throughput_packets_per_cycle(self) -> float:
        """Delivered packets per simulated cycle."""
        return self.delivered / self.cycles if self.cycles else 0.0

    @property
    def packets_unaccounted(self) -> int:
        """Injected packets not delivered, dropped in flight or buffered.

        Zero on any correct run; after a full :meth:`NocSimulator.drain`
        it reduces to ``injected - delivered - dropped_in_flight``.
        """
        return (
            self.injected - self.delivered - self.dropped_in_flight - self.in_flight
        )

    @property
    def flit_conservation_ok(self) -> bool:
        """Exact flit conservation at report time."""
        return self.packets_unaccounted == 0


class NocSimulator:
    """Cycle-level dual-network mesh simulator.

    One oracle and one kernel compute the same semantics:

    * ``engine="reference"`` (default) — the explicit object model: one
      :class:`~repro.noc.router.Router` per healthy tile per network,
      every router arbitrated every cycle.  Easy to inspect (the
      ``routers`` grids are public) and the oracle the vector engine is
      differentially tested against.  ``engine="fast"`` is accepted as
      an alias: it builds this same class and only echoes its name.
    * ``engine="vector"`` — the batched numpy engine
      (:class:`repro.noc.vectorsim.VectorNocSimulator`): the whole
      arbitrate/apply cycle as array operations over a column packet
      table and ring-buffer FIFOs.  Bit-identical reports; the engine
      of choice at full-wafer (2048-chiplet) scale and beyond.

    Constructing ``NocSimulator(..., engine="vector")`` transparently
    returns the subclass, so callers never import engine modules
    directly.
    """

    def __new__(
        cls,
        config: SystemConfig,
        fault_map: FaultMap | None = None,
        fifo_depth: int = 4,
        response_delay: int = 2,
        telemetry: Telemetry | None = None,
        engine: str = "reference",
        checkers: "Iterable[InvariantChecker] | None" = None,
    ):
        if cls is NocSimulator and engine == "vector":
            from .vectorsim import VectorNocSimulator

            return super().__new__(VectorNocSimulator)
        return super().__new__(cls)

    def __init__(
        self,
        config: SystemConfig,
        fault_map: FaultMap | None = None,
        fifo_depth: int = 4,
        response_delay: int = 2,
        telemetry: Telemetry | None = None,
        engine: str = "reference",
        checkers: "Iterable[InvariantChecker] | None" = None,
    ):
        if engine not in ENGINES:
            raise NetworkError(f"unknown engine {engine!r}; pick one of {ENGINES}")
        if fifo_depth < 1:
            raise NetworkError("FIFO depth must be >= 1")
        self.engine = engine
        self.config = config
        self.fault_map = fault_map or FaultMap(config)
        self.fifo_depth = fifo_depth
        self.response_delay = response_delay
        self.cycle = 0

        self._pending_injections: list[tuple[Packet, NetworkId]] = []
        self.injected_count = 0
        self.dropped_unreachable = 0
        self.dropped_in_flight = 0      # DoR packets that hit a faulty link
        self.link_stalls = 0            # winners held back by backpressure
        self._per_network_delivered = {n: 0 for n in NetworkId}
        # Incremental counters: packets currently buffered in routers
        # (total, and per network).  They make idle() O(1) and give the
        # telemetry its occupancy numbers without any per-cycle scan.
        self._in_flight = 0
        self._net_occupancy = {n: 0 for n in NetworkId}
        self._last_report: SimulationReport | None = None

        # Invariant-checker dispatch: one callback list per event, or
        # None when no attached checker subscribes — so the unchecked
        # hot path pays a single ``is None`` test per event site.
        self.checkers: "list[InvariantChecker]" = list(checkers or ())
        self._chk_step = self._subscribers("on_step")
        self._chk_grant = self._subscribers("on_grant")
        self._chk_deliver = self._subscribers("on_deliver")
        self._chk_drop = self._subscribers("on_drop")

        self._build_state()
        for checker in self.checkers:
            attach = getattr(checker, "attach", None)
            if attach is not None:
                attach(self)

        tel = resolve_telemetry(telemetry)
        self.telemetry = tel
        self._obs: Telemetry | None = tel if tel.enabled else None
        self._router_snapshot_cycle = -1
        if self._obs is not None:
            metrics = tel.metrics
            self._m_injected = metrics.counter("noc.injected")
            self._m_inject_backpressure = metrics.counter(
                "noc.injection_backpressure"
            )
            self._m_dropped = metrics.counter("noc.dropped_unreachable")
            self._m_stalls = metrics.counter("noc.link_stalls")
            self._m_latency = metrics.histogram(
                "noc.latency_cycles", buckets=LATENCY_BUCKETS
            )
            self._m_delivered = {
                net: metrics.counter("noc.delivered", network=net.name)
                for net in NetworkId
            }
            self._m_occupancy = {
                net: metrics.histogram(
                    "noc.queue_occupancy",
                    buckets=OCCUPANCY_BUCKETS,
                    network=net.name,
                )
                for net in NetworkId
            }
            self._m_load = {
                net: metrics.gauge("noc.network_load", network=net.name)
                for net in NetworkId
            }

    # ------------------------------------------------------------------

    def _subscribers(self, event: str) -> "list | None":
        """Callbacks of attached checkers defining ``event`` (None if none)."""
        fns = [
            getattr(checker, event)
            for checker in self.checkers
            if hasattr(checker, event)
        ]
        return fns or None

    def _build_state(self) -> None:
        """Build the engine's mutable network state (reference: routers).

        Also the response queue and the delivered list, which the vector
        engine keeps as columns instead.
        """
        self._pending_responses: list[tuple[int, Packet, NetworkId]] = []
        self.delivered_packets: list[Packet] = []
        self.routers: dict[NetworkId, dict[Coord, Router]] = {}
        for net in NetworkId:
            grid: dict[Coord, Router] = {}
            for coord in self.config.tile_coords():
                if not self.fault_map.is_faulty(coord):
                    grid[coord] = Router(coord, net.policy, self.fifo_depth)
            self.routers[net] = grid

    def _tile_tid(self, coord: Coord) -> int:
        """Stable per-tile trace track id (tid 0 is the simulator's)."""
        return 1 + coord[0] * self.config.cols + coord[1]

    def inject(self, packet: Packet, network: NetworkId) -> bool:
        """Queue a packet for injection on a network.

        Returns False (and counts a drop) when either endpoint is faulty —
        the kernel would never schedule such traffic, but workloads may
        try.
        """
        if self.fault_map.is_faulty(packet.src) or self.fault_map.is_faulty(packet.dst):
            self.dropped_unreachable += 1
            if self._obs is not None:
                self._m_dropped.inc()
            return False
        self._pending_injections.append((packet, network))
        return True

    def inject_many(self, src, dst, network: NetworkId) -> int:
        """Queue one cycle's REQUESTs given as flat tile-index arrays.

        The array form of :meth:`inject`: ``src[i] -> dst[i]`` in order,
        with consecutive packet ids reserved as one block (dropped
        requests keep theirs).  Off-mesh indices raise
        :class:`~repro.errors.ConfigError`, as :meth:`inject` does;
        requests with a faulty endpoint are counted as drops.  Returns
        the number queued.  The object model materialises the packets
        and injects them one by one.
        """
        src, dst = self._check_tiles(src, dst)
        first = reserve_packet_ids(src.size)
        packets = materialise_packets(
            self.config.cols,
            src=src,
            dst=dst,
            packet_id=range(first, first + src.size),
        )
        return sum(self.inject(packet, network) for packet in packets)

    def _check_tiles(self, src, dst) -> tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` as int64 arrays, bounds-checked (see inject_many)."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.ndim != 1 or src.shape != dst.shape:
            raise NetworkError(
                f"inject_many needs two equal-length 1-D arrays, got shapes "
                f"{src.shape} and {dst.shape}"
            )
        n = self.config.tiles
        for name, tiles in (("src", src), ("dst", dst)):
            bad = (tiles < 0) | (tiles >= n)
            if bad.any():
                raise ConfigError(
                    f"{name} tile index {int(tiles[bad.argmax()])} outside the "
                    f"{self.config.rows}x{self.config.cols} array"
                )
        return src, dst

    def _try_local_injections(self) -> None:
        """Move pending packets into their source router's LOCAL FIFO."""
        remaining: list[tuple[Packet, NetworkId]] = []
        accepted = 0
        for packet, net in self._pending_injections:
            router = self.routers[net].get(packet.src)
            if router is None:
                self.dropped_unreachable += 1
                if self._obs is not None:
                    self._m_dropped.inc()
                continue
            if router.can_accept(Port.LOCAL):
                if packet.injected_cycle is None:
                    packet.injected_cycle = self.cycle
                router.accept(Port.LOCAL, packet)
                self.injected_count += 1
                self._in_flight += 1
                self._net_occupancy[net] += 1
                accepted += 1
            else:
                remaining.append((packet, net))
        self._pending_injections = remaining
        if self._obs is not None:
            if accepted:
                self._m_injected.inc(accepted)
            if remaining:
                self._m_inject_backpressure.inc(len(remaining))

    def _release_due_responses(self) -> None:
        due = [x for x in self._pending_responses if x[0] <= self.cycle]
        self._pending_responses = [
            x for x in self._pending_responses if x[0] > self.cycle
        ]
        for _, packet, net in due:
            self._pending_injections.append((packet, net))

    def _deliver(self, packet: Packet, network: NetworkId) -> None:
        packet.delivered_cycle = self.cycle
        self.delivered_packets.append(packet)
        self._per_network_delivered[network] += 1
        self._in_flight -= 1
        self._net_occupancy[network] -= 1
        if self._obs is not None:
            self._record_delivery(packet, network)
        if self._chk_deliver is not None:
            for fn in self._chk_deliver:
                fn(self, packet, network)
        if packet.kind is PacketKind.REQUEST:
            response = Packet(
                kind=PacketKind.RESPONSE,
                src=packet.dst,
                dst=packet.src,
                address=packet.address,
                payload=packet.payload,
                request_id=packet.packet_id,
            )
            self._pending_responses.append(
                (self.cycle + self.response_delay, response, network.complement)
            )

    def _record_delivery(self, packet: Packet, network: NetworkId) -> None:
        """Metrics and a per-tile trace span for one delivered packet."""
        latency = packet.latency
        self._m_delivered[network].inc()
        if latency is not None:
            self._m_latency.observe(latency)
            tracer = self.telemetry.tracer
            tid = self._tile_tid(packet.dst)
            tracer.name_track(
                tid, f"tile ({packet.dst[0]},{packet.dst[1]})"
            )
            tracer.complete(
                f"pkt {packet.src}->{packet.dst}",
                ts=packet.injected_cycle,
                dur=max(latency, 1),
                cat="noc.router",
                tid=tid,
                network=network.name,
                kind=packet.kind.name,
            )

    def step(self) -> None:
        """Advance the simulation by one cycle."""
        self._release_due_responses()
        self._try_local_injections()

        # Two-phase update: arbitrate everywhere first, then move packets,
        # so a move this cycle cannot enable another move this cycle.
        moves: list[tuple[NetworkId, Router, Port, Port, Router | None, Port | None]] = []
        stalled = 0
        for net in NetworkId:
            for router in self.routers[net].values():
                for out_port, (in_port, packet) in router.arbitrate().items():
                    if out_port is Port.LOCAL:
                        moves.append((net, router, out_port, in_port, None, None))
                        continue
                    hop = packet_next_coord(router.coord, out_port)
                    downstream = self.routers[net].get(hop)
                    if downstream is None:
                        # Link into a faulty tile: the packet can never
                        # progress (DoR cannot re-route).  Drop it and count.
                        moves.append((net, router, out_port, in_port, None, Port.LOCAL))
                        continue
                    entry_port = _entry_port(out_port)
                    if downstream.can_accept(entry_port):
                        moves.append(
                            (net, router, out_port, in_port, downstream, entry_port)
                        )
                    else:
                        stalled += 1

        for net, router, out_port, in_port, downstream, entry in moves:
            packet = router.grant(out_port, in_port)
            if self._chk_grant is not None:
                for fn in self._chk_grant:
                    fn(
                        self,
                        net,
                        router.coord,
                        PORT_CODE[out_port],
                        PORT_CODE[in_port],
                        packet,
                        router._rr_state[out_port],
                    )
            if out_port is Port.LOCAL:
                self._deliver(packet, net)
            elif downstream is None:
                self.dropped_unreachable += 1
                self.dropped_in_flight += 1
                self._in_flight -= 1
                self._net_occupancy[net] -= 1
                if self._chk_drop is not None:
                    for fn in self._chk_drop:
                        fn(self, packet, net)
            else:
                downstream.accept(entry, packet)

        self.link_stalls += stalled
        if self._obs is not None:
            self._record_step(len(moves), stalled)
        if self._chk_step is not None:
            for fn in self._chk_step:
                fn(self)
        self.cycle += 1

    def _record_step(self, moved: int, stalled: int) -> None:
        """Per-cycle metrics and the step span (cycle-domain timestamps).

        Occupancy comes from the incrementally-maintained per-network
        counters, not a per-cycle scan of every router — O(1) per cycle
        regardless of array size or engine.
        """
        if stalled:
            self._m_stalls.inc(stalled)
        for net in NetworkId:
            occupancy = self._net_occupancy[net]
            self._m_occupancy[net].observe(occupancy)
            self._m_load[net].set(occupancy)
        self.telemetry.tracer.complete(
            "noc.step",
            ts=self.cycle,
            dur=1,
            cat="noc.sim",
            moved=moved,
            stalled=stalled,
        )

    def run(self, cycles: int) -> None:
        """Advance by ``cycles`` cycles.

        Without telemetry or checkers the run skips ahead: cycles where
        nothing is buffered or queued cost nothing (see
        :meth:`_skip_ahead`), and the engine may advance busy stretches
        several cycles at a time (:meth:`_advance`).  With either
        attached, every cycle is one :meth:`step`, so per-cycle hooks
        and spans see each cycle.  The final state is the same.
        """
        if cycles < 0:
            raise NetworkError("cycles must be non-negative")
        start = self.cycle
        if self._per_cycle():
            for _ in range(cycles):
                self.step()
        else:
            self._skip_ahead(start + cycles)
            self.cycle = start + cycles
        if self._obs is not None and cycles:
            self.telemetry.tracer.complete(
                "noc.run", ts=start, dur=self.cycle - start, cat="noc.sim"
            )

    def drain(self, max_cycles: int = 100_000) -> None:
        """Run until all in-flight traffic is delivered (or the limit hits).

        The limit counts simulated cycles, skipped ones included, and
        is spent in the same way on both paths of :meth:`run`: a drain
        that needs all ``max_cycles`` cycles raises, leaving ``cycle``
        at ``start + max_cycles``.
        """
        start = self.cycle
        stop = start + max_cycles
        if self._per_cycle():
            for _ in range(max_cycles):
                if self.idle():
                    if self._obs is not None and self.cycle > start:
                        self.telemetry.tracer.complete(
                            "noc.drain",
                            ts=start,
                            dur=self.cycle - start,
                            cat="noc.sim",
                        )
                    return
                self.step()
        elif not self._skip_ahead(stop):
            return
        raise NetworkError(f"network failed to drain within {max_cycles} cycles")

    def _per_cycle(self) -> bool:
        """True when telemetry or a checker must see every cycle."""
        return self._obs is not None or bool(self.checkers)

    def _skip_ahead(self, stop: int) -> bool:
        """Advance toward cycle ``stop`` while anything is in flight.

        Returns False as soon as the network is idle (``cycle`` is
        left there) and True once ``cycle`` reaches ``stop`` with
        traffic left.  A cycle with nothing buffered or queued changes
        nothing but ``cycle`` (round-robin pointers move only on a
        grant), so the loop jumps straight to the next cycle where a
        response is due.
        """
        while self.cycle < stop:
            due = self._next_event_cycle()
            if due is None:
                return False
            if due >= stop:
                self.cycle = stop
                break
            self.cycle = due
            self._advance(stop)
        return True

    def _next_event_cycle(self) -> int | None:
        """First cycle from now whose step can change more than ``cycle``.

        ``self.cycle`` while packets are buffered or wait for admission,
        the due cycle of the earliest pending response otherwise, and
        None on an idle network.
        """
        if self._in_flight or self._admission_pending():
            return self.cycle
        due = self._next_response_due()
        return None if due is None else max(self.cycle, due)

    def _admission_pending(self) -> bool:
        """Packets queued for injection but not yet in a LOCAL FIFO."""
        return bool(self._pending_injections)

    def _next_response_due(self) -> int | None:
        """Due cycle of the earliest scheduled response (None if none)."""
        return min((due for due, _, _ in self._pending_responses), default=None)

    def _advance(self, stop: int) -> None:
        """Advance a busy network by at least one cycle, at most to ``stop``.

        The object model steps once; the vector engine may fast-forward
        a contention-free window.
        """
        self.step()

    def idle(self) -> bool:
        """True when no packet is queued, buffered or pending anywhere.

        O(1): buffered traffic is tracked by an in-flight counter
        (injected − delivered − dropped in flight) instead of scanning
        every router, so :meth:`drain`'s per-cycle check is free.
        """
        if self._pending_injections or self._pending_responses:
            return False
        return self._in_flight == 0

    def report(self) -> SimulationReport:
        """Summarise the run so far.

        Counters are frozen into the report *before* the telemetry
        router-distribution snapshot runs, so drained packets (including
        in-flight drops attributed during :meth:`drain`) are accounted in
        the same instant the snapshot describes — the ordering exact flit
        conservation (``report.flit_conservation_ok``) relies on.
        """
        latencies, responses, delivered = self._delivery_stats()
        report = SimulationReport(
            cycles=self.cycle,
            injected=self.injected_count,
            delivered=delivered,
            responses_delivered=responses,
            dropped_unreachable=self.dropped_unreachable,
            latencies=latencies,
            per_network_delivered=dict(self._per_network_delivered),
            dropped_in_flight=self.dropped_in_flight,
            in_flight=self._in_flight,
        )
        if self._obs is not None:
            self._record_router_distributions()
        # Reuse the previous report's sorted-latency cache when nothing
        # new was delivered, so report(); report.p99_latency in a loop
        # pays for one sort total, not one per call.
        last = self._last_report
        if (
            last is not None
            and last.delivered == report.delivered
            and last._sorted_latencies is not None
        ):
            report._sorted_latencies = last._sorted_latencies
        self._last_report = report
        return report

    def _delivery_stats(self) -> tuple[list[int], int, int]:
        """``(latencies, responses, delivered)`` in one pass over deliveries."""
        latencies: list[int] = []
        responses = 0
        response = PacketKind.RESPONSE
        for packet in self.delivered_packets:
            injected = packet.injected_cycle
            delivered = packet.delivered_cycle
            if injected is not None and delivered is not None:
                latencies.append(delivered - injected)
            if packet.kind is response:
                responses += 1
        return latencies, responses, len(self.delivered_packets)

    # ------------------------------------------------------------------
    # Checkpoint/restore

    def save_state(self, path, extra: dict | None = None) -> None:
        """Write a resumable checkpoint of the full simulation state.

        The file is a ``.npz`` archive holding every in-flight, pending
        and delivered packet plus the per-router FIFO/round-robin state,
        with a manifest (config, fault map, engine, counters) protected
        by a content hash — see :mod:`repro.noc.checkpoint`.  ``extra``
        is an arbitrary JSON-able dict round-tripped in the manifest
        (the CLI stores its traffic parameters there).
        """
        from .checkpoint import save_noc_state

        save_noc_state(self, path, extra=extra)

    @classmethod
    def load_state(
        cls,
        path,
        engine: str | None = None,
        telemetry: Telemetry | None = None,
        checkers: "Iterable[InvariantChecker] | None" = None,
    ) -> "NocSimulator":
        """Reconstruct a simulator from a :meth:`save_state` checkpoint.

        ``engine=None`` resumes on the engine that wrote the checkpoint;
        passing an engine name resumes the same state on a different
        engine (the serialized form is engine-neutral).  Continuing a
        restored simulator is bit-identical to never having stopped.
        """
        from .checkpoint import load_noc_state

        return load_noc_state(
            path, engine=engine, telemetry=telemetry, checkers=checkers
        )

    def _pending_injection_list(self) -> list[tuple[Packet, NetworkId]]:
        """Queued-but-not-admitted packets, in admission-relevant order.

        Checkpointing serializes this instead of reading
        ``_pending_injections`` directly because the vector engine keeps
        its backlog in per-tile queues; admission only depends on
        per-tile order, which every engine's flattening preserves.
        """
        return list(self._pending_injections)

    def _pending_response_list(self) -> list[tuple[int, Packet, NetworkId]]:
        """Scheduled ``(due_cycle, response, network)`` triples, due first."""
        return list(self._pending_responses)

    def _set_pending_responses(
        self, responses: list[tuple[int, Packet, NetworkId]]
    ) -> None:
        """Replace the response queue (checkpoint restore)."""
        self._pending_responses = list(responses)

    def _snapshot_engine_state(self) -> dict:
        """Engine-private state as ``{"fifos", "rr", "fwd"}`` nested lists.

        ``fifos[net_i][tile_idx][port_code]`` is the queued packet list
        (head first), ``rr``/``fwd`` the round-robin pointers and
        forwarded counts — the exact layout every engine can both emit
        and reload, which is what makes checkpoints engine-portable.
        """
        cols = self.config.cols
        n = self.config.tiles
        ports = list(Port)
        fifos = [[[[] for _ in range(5)] for _ in range(n)] for _ in range(2)]
        rr = [[[0] * 5 for _ in range(n)] for _ in range(2)]
        fwd = [[0] * n for _ in range(2)]
        for net_i, net in enumerate((NetworkId.XY, NetworkId.YX)):
            for coord, router in self.routers[net].items():
                idx = coord[0] * cols + coord[1]
                fifos[net_i][idx] = [
                    list(router.inputs[p].queue) for p in ports
                ]
                rr[net_i][idx] = [router._rr_state[p] for p in ports]
                fwd[net_i][idx] = router.forwarded_packets
        return {"fifos": fifos, "rr": rr, "fwd": fwd}

    def _restore_engine_state(self, state: dict) -> None:
        """Load a :meth:`_snapshot_engine_state` dict into live routers."""
        cols = self.config.cols
        ports = list(Port)
        for net_i, net in enumerate((NetworkId.XY, NetworkId.YX)):
            for coord, router in self.routers[net].items():
                idx = coord[0] * cols + coord[1]
                for code, port in enumerate(ports):
                    router.inputs[port].queue.extend(
                        state["fifos"][net_i][idx][code]
                    )
                    router._rr_state[port] = state["rr"][net_i][idx][code]
                router.forwarded_packets = state["fwd"][net_i][idx]

    def _iter_fifo_lengths(self) -> Iterator[tuple[NetworkId, Coord, int, int]]:
        """Yield ``(network, coord, port_code, occupancy)`` for every FIFO.

        The engine-neutral state walk :class:`~repro.verify.invariants.
        FifoBoundChecker` scans; all engines implement it over their own
        state layout.
        """
        for net in NetworkId:
            for coord, router in self.routers[net].items():
                for port, fifo in router.inputs.items():
                    yield net, coord, PORT_CODE[port], len(fifo.queue)

    def _record_router_distributions(self) -> None:
        """Per-router load snapshot: one observation per router.

        Captures the spread of forwarded-packet counts and buffered
        occupancy *across* routers (hot-spot detection) without emitting
        thousands of individual per-router series.  Recorded at most
        once per simulated cycle so repeated :meth:`report` calls do not
        double-count.  The observations are batched (one vectorized
        histogram update per network) so the snapshot stays affordable
        at full-wafer router counts.
        """
        if self._router_snapshot_cycle == self.cycle:
            return
        self._router_snapshot_cycle = self.cycle
        metrics = self.telemetry.metrics
        for net in NetworkId:
            routers = self.routers[net].values()
            metrics.histogram(
                "noc.router_forwarded_packets", network=net.name
            ).observe_many([r.forwarded_packets for r in routers])
            metrics.histogram(
                "noc.router_buffered_packets", network=net.name
            ).observe_many([r.occupancy() for r in routers])


def packet_next_coord(coord: Coord, port: Port) -> Coord:
    """The adjacent coordinate an output port points at."""
    r, c = coord
    if port is Port.NORTH:
        return (r - 1, c)
    if port is Port.SOUTH:
        return (r + 1, c)
    if port is Port.WEST:
        return (r, c - 1)
    if port is Port.EAST:
        return (r, c + 1)
    raise NetworkError("LOCAL port has no coordinate")


def _entry_port(out_port: Port) -> Port:
    """The downstream input port a packet arrives on."""
    return {
        Port.NORTH: Port.SOUTH,
        Port.SOUTH: Port.NORTH,
        Port.WEST: Port.EAST,
        Port.EAST: Port.WEST,
    }[out_port]
