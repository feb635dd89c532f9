"""Deliberately naive golden models used as differential oracles.

Each oracle here is an *independent* re-implementation of a subsystem's
semantics, written for obviousness rather than speed: explicit loops,
dense matrices, dict-of-lists state, no caches, no lookup tables, no
vectorisation.  They share only data types (:class:`~repro.noc.packets.
Packet`, :class:`~repro.noc.faults.FaultMap`) with the engines they
judge — never simulation logic — so a bug in an engine's clever path
cannot hide in its oracle.

Scope and limits
----------------
* :class:`GoldenNocModel` reproduces the cycle-level NoC semantics
  exactly (same arbitration, credit flow and request/response protocol),
  so its reports are compared *field-for-field* against both engines.
  It is O(tiles) per cycle regardless of load — keep it to small arrays
  (<= ~12x12) and short runs.
* :func:`golden_pdn_solve` assembles the mesh Laplacian with plain
  loops into a **dense** matrix and solves with ``numpy.linalg.solve``.
  Voltages agree with the sparse solver to linear-algebra round-off
  (compare with ``atol≈1e-8``), not bit-exactly.
* :func:`golden_bfs` / :func:`golden_sssp` are textbook pure-Python
  graph routines; distances are exact and compared for equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import Coord, SystemConfig
from ..errors import ConvergenceError, PdnError
from ..noc.dualnetwork import NetworkId
from ..noc.faults import FaultMap
from ..noc.packets import Packet, PacketKind

# Port codes (N, S, W, E, LOCAL) — redeclared locally on purpose: the
# oracle must not share tables with the engines it checks.
_N, _S, _W, _E, _LOCAL = range(5)
_STEPS = {_N: (-1, 0), _S: (1, 0), _W: (0, -1), _E: (0, 1)}


def _golden_port(cur: Coord, dst: Coord, network: NetworkId) -> int:
    """Independent DoR output-port decision (plain if/else)."""
    (r, c), (dr, dc) = cur, dst
    if network is NetworkId.XY:
        if c != dc:
            return _E if dc > c else _W
        if r != dr:
            return _S if dr > r else _N
        return _LOCAL
    if r != dr:
        return _S if dr > r else _N
    if c != dc:
        return _E if dc > c else _W
    return _LOCAL


@dataclass
class GoldenNocReport:
    """The oracle's aggregate results, shaped like a SimulationReport."""

    cycles: int
    injected: int
    delivered: int
    responses_delivered: int
    dropped_unreachable: int
    dropped_in_flight: int
    in_flight: int
    latencies: list[int] = field(default_factory=list)
    per_network_delivered: dict[NetworkId, int] = field(default_factory=dict)


class GoldenNocModel:
    """Loop-based mini-NoC with the exact semantics of the simulators.

    One dict-of-lists FIFO per (network, tile, port); every healthy tile
    is visited every cycle in row-major order; two-phase update with
    round-robin output arbitration and credit-based backpressure;
    REQUEST deliveries schedule a RESPONSE on the complementary network
    after ``response_delay`` cycles.  No active sets, no routing tables,
    no shared code with either engine.
    """

    def __init__(
        self,
        config: SystemConfig,
        fault_map: FaultMap | None = None,
        fifo_depth: int = 4,
        response_delay: int = 2,
    ) -> None:
        self.config = config
        self.fault_map = fault_map or FaultMap(config)
        self.fifo_depth = fifo_depth
        self.response_delay = response_delay
        self.cycle = 0
        self.healthy = [
            coord
            for coord in config.tile_coords()
            if not self.fault_map.is_faulty(coord)
        ]
        healthy_set = set(self.healthy)
        self._healthy_set = healthy_set
        # fifos[net][(coord, port)] -> list of packets (head at index 0)
        self.fifos: dict[NetworkId, dict[tuple[Coord, int], list[Packet]]] = {
            net: {(coord, port): [] for coord in self.healthy for port in range(5)}
            for net in NetworkId
        }
        self.rr: dict[NetworkId, dict[tuple[Coord, int], int]] = {
            net: {(coord, port): 0 for coord in self.healthy for port in range(5)}
            for net in NetworkId
        }
        self.pending_injections: list[tuple[Packet, NetworkId]] = []
        self.pending_responses: list[tuple[int, Packet, NetworkId]] = []
        self.injected = 0
        self.dropped_unreachable = 0
        self.dropped_in_flight = 0
        self.delivered: list[tuple[Packet, NetworkId]] = []

    # -- protocol ----------------------------------------------------------

    def inject(self, packet: Packet, network: NetworkId) -> bool:
        """Queue a packet; reject (and count) faulty endpoints."""
        if (
            self.fault_map.is_faulty(packet.src)
            or self.fault_map.is_faulty(packet.dst)
        ):
            self.dropped_unreachable += 1
            return False
        self.pending_injections.append((packet, network))
        return True

    def _buffered(self) -> int:
        return sum(
            len(q) for fifos in self.fifos.values() for q in fifos.values()
        )

    def idle(self) -> bool:
        """True when nothing is queued, buffered or pending."""
        if self.pending_injections or self.pending_responses:
            return False
        return self._buffered() == 0

    def step(self) -> None:
        """One cycle, mirroring the documented engine semantics."""
        # 1. release due responses into the injection queue.
        due = [x for x in self.pending_responses if x[0] <= self.cycle]
        self.pending_responses = [
            x for x in self.pending_responses if x[0] > self.cycle
        ]
        for _, packet, net in due:
            self.pending_injections.append((packet, net))

        # 2. local injection with backpressure.
        remaining: list[tuple[Packet, NetworkId]] = []
        for packet, net in self.pending_injections:
            if packet.src not in self._healthy_set:
                self.dropped_unreachable += 1
                continue
            queue = self.fifos[net][(packet.src, _LOCAL)]
            if len(queue) < self.fifo_depth:
                if packet.injected_cycle is None:
                    packet.injected_cycle = self.cycle
                queue.append(packet)
                self.injected += 1
            else:
                remaining.append((packet, net))
        self.pending_injections = remaining

        # 3. arbitration phase: every healthy tile, row-major, both nets.
        #    A move is (net, coord, out, in, kind) with kind one of
        #    'link'/'deliver'/'drop'.
        moves: list[tuple[NetworkId, Coord, int, int, str, Coord | None]] = []
        for net in NetworkId:
            fifos = self.fifos[net]
            for coord in self.healthy:
                # Head-of-line requests per output, in input-port order.
                requests: dict[int, list[int]] = {}
                order: list[int] = []
                for in_p in range(5):
                    queue = fifos[(coord, in_p)]
                    if not queue:
                        continue
                    out = _golden_port(coord, queue[0].dst, net)
                    if out not in requests:
                        requests[out] = []
                        order.append(out)
                    requests[out].append(in_p)
                for out in order:
                    pointer = self.rr[net][(coord, out)]
                    winner = min(
                        requests[out], key=lambda p: (p - pointer) % 5
                    )
                    if out == _LOCAL:
                        moves.append((net, coord, out, winner, "deliver", None))
                        continue
                    dr, dc = _STEPS[out]
                    hop = (coord[0] + dr, coord[1] + dc)
                    if hop not in self._healthy_set:
                        moves.append((net, coord, out, winner, "drop", None))
                    elif len(fifos[(hop, out ^ 1)]) < self.fifo_depth:
                        moves.append((net, coord, out, winner, "link", hop))
                    # else: stalled by backpressure; retried next cycle.

        # 4. apply phase, in arbitration order.
        for net, coord, out, in_p, kind, hop in moves:
            packet = self.fifos[net][(coord, in_p)].pop(0)
            self.rr[net][(coord, out)] = (in_p + 1) % 5
            if kind == "link":
                assert hop is not None
                self.fifos[net][(hop, out ^ 1)].append(packet)
            elif kind == "drop":
                self.dropped_unreachable += 1
                self.dropped_in_flight += 1
            else:
                packet.delivered_cycle = self.cycle
                self.delivered.append((packet, net))
                if packet.kind is PacketKind.REQUEST:
                    response = Packet(
                        kind=PacketKind.RESPONSE,
                        src=packet.dst,
                        dst=packet.src,
                        address=packet.address,
                        payload=packet.payload,
                        request_id=packet.packet_id,
                    )
                    self.pending_responses.append(
                        (
                            self.cycle + self.response_delay,
                            response,
                            NetworkId.YX if net is NetworkId.XY else NetworkId.XY,
                        )
                    )
        self.cycle += 1

    def run(self, cycles: int) -> None:
        """Advance ``cycles`` cycles."""
        for _ in range(cycles):
            self.step()

    def report(self) -> GoldenNocReport:
        """Aggregate results shaped like the engines' report."""
        per_net = {net: 0 for net in NetworkId}
        responses = 0
        latencies: list[int] = []
        for packet, net in self.delivered:
            per_net[net] += 1
            if packet.kind is PacketKind.RESPONSE:
                responses += 1
            if packet.injected_cycle is not None and packet.delivered_cycle is not None:
                latencies.append(packet.delivered_cycle - packet.injected_cycle)
        return GoldenNocReport(
            cycles=self.cycle,
            injected=self.injected,
            delivered=len(self.delivered),
            responses_delivered=responses,
            dropped_unreachable=self.dropped_unreachable,
            dropped_in_flight=self.dropped_in_flight,
            in_flight=self._buffered(),
            latencies=latencies,
            per_network_delivered=per_net,
        )


# ---------------------------------------------------------------------------
# PDN
# ---------------------------------------------------------------------------


def golden_pdn_solve(
    config: SystemConfig,
    tile_power_w: float | np.ndarray | None = None,
    load_model: str = "ldo",
    edge_connector_ohm: float | None = None,
    max_iterations: int = 100,
    tolerance_v: float = 1e-6,
    min_load_voltage: float = 0.2,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Dense-oracle PDN solve: ``(voltages, currents, iterations)``.

    Assembles the same physical mesh as :class:`~repro.pdn.solver.
    PdnSolver` — plane-stack sheet resistances, edge connectors on
    boundary nodes — but with plain Python loops into a dense matrix,
    then solves with :func:`numpy.linalg.solve`.  The constant-power
    fixed point uses the identical iteration rule, so per-map iteration
    counts match the solver exactly and voltages agree to round-off.
    """
    from ..pdn.plane import extract_plane_stack
    from ..pdn.solver import DEFAULT_EDGE_CONNECTOR_OHM

    if load_model not in ("ldo", "constant_power"):
        raise PdnError(f"unknown load model {load_model!r}")
    rows, cols = config.rows, config.cols
    n = rows * cols
    stack = extract_plane_stack(config)
    r_h, r_v = stack.mesh_resistances(config)
    g_h, g_v = 1.0 / r_h, 1.0 / r_v
    edge_ohm = (
        edge_connector_ohm
        if edge_connector_ohm is not None
        else DEFAULT_EDGE_CONNECTOR_OHM
    )

    laplacian = np.zeros((n, n))
    edge_g = np.zeros(n)
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            for (nr, nc), g in (((r, c + 1), g_h), ((r + 1, c), g_v)):
                if nr < rows and nc < cols:
                    j = nr * cols + nc
                    laplacian[i, j] -= g
                    laplacian[j, i] -= g
                    laplacian[i, i] += g
                    laplacian[j, j] += g
            touches = (r == 0) + (r == rows - 1) + (c == 0) + (c == cols - 1)
            if touches:
                edge_g[i] = touches / edge_ohm
                laplacian[i, i] += touches / edge_ohm

    if tile_power_w is None:
        tile_power_w = config.tile_peak_power_w
    power = np.asarray(tile_power_w, dtype=float)
    if power.ndim == 0:
        power = np.full((rows, cols), float(power))
    flat_power = power.reshape(-1)
    v_edge = config.edge_supply_voltage
    injection = edge_g * v_edge

    if load_model == "ldo":
        currents = flat_power / config.ff_corner_voltage
        voltages = np.linalg.solve(laplacian, injection - currents)
        return (
            voltages.reshape(rows, cols),
            currents.reshape(rows, cols),
            1,
        )

    voltages = np.full(n, v_edge)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        load_v = np.maximum(voltages, min_load_voltage)
        currents = flat_power / load_v
        new_voltages = np.linalg.solve(laplacian, injection - currents)
        delta = float(np.abs(new_voltages - voltages).max())
        voltages = new_voltages
        if delta < tolerance_v:
            break
    else:  # pragma: no cover - campaign maps always converge
        raise ConvergenceError("golden PDN fixed point did not converge")
    currents = flat_power / np.maximum(voltages, min_load_voltage)
    return voltages.reshape(rows, cols), currents.reshape(rows, cols), iterations


# ---------------------------------------------------------------------------
# Graph workloads
# ---------------------------------------------------------------------------


def golden_bfs(graph, source) -> dict:
    """Textbook queue-based BFS distances (pure Python)."""
    distance = {source: 0}
    frontier = [source]
    while frontier:
        nxt: list = []
        for u in frontier:
            for v in graph.neighbors(u):
                if v not in distance:
                    distance[v] = distance[u] + 1
                    nxt.append(v)
        frontier = nxt
    return distance


def golden_sssp(graph, source) -> dict:
    """Bellman-Ford label correcting over the whole vertex set."""
    distance = {source: 0.0}
    changed = True
    while changed:
        changed = False
        for u, v, data in graph.edges(data=True):
            w = float(data.get("weight", 1))
            for a, b in ((u, v), (v, u)):
                if a in distance and distance[a] + w < distance.get(b, float("inf")):
                    distance[b] = distance[a] + w
                    changed = True
    return distance


# ---------------------------------------------------------------------------
# collective-workload oracles
# ---------------------------------------------------------------------------
#
# Naive models of what each collective in ``repro.workloads.collectives``
# must compute, written against the *mathematical* definition (sum every
# contribution, move every block) rather than against any schedule.  They
# know the builders' public slot conventions — that is the interface
# contract being checked — but share no phase/routing/execution logic
# with the engine side.  The one shared artifact is the deterministic
# input function ``contribution(seed, rank, slot)``: both sides must
# agree on the *inputs* for a differential test to be meaningful.

_MASK64 = (1 << 64) - 1


def golden_all_reduce(values: list[list[int]]) -> list[int]:
    """Per-slot sum (mod 2**64) of every rank's contributions.

    ``values[rank][slot]`` are the inputs; every rank must end holding
    the returned list, whatever all-reduce schedule was used.
    """
    if not values:
        return []
    slots = len(values[0])
    totals = []
    for s in range(slots):
        acc = 0
        for rank_values in values:
            acc = (acc + rank_values[s]) & _MASK64
        totals.append(acc)
    return totals


def golden_broadcast(values: list[int], root: int) -> list[int]:
    """Every rank ends with the root's value."""
    return [values[root] for _ in values]


def golden_reduce(values: list[int]) -> int:
    """The root's final value: the sum (mod 2**64) of all contributions."""
    acc = 0
    for v in values:
        acc = (acc + v) & _MASK64
    return acc


def golden_all_to_all(values: list[list[int]]) -> list[list[int]]:
    """The personalized exchange: ``out[j][i] == values[i][j]``."""
    n = len(values)
    out = []
    for j in range(n):
        out.append([values[i][j] for i in range(n)])
    return out


def golden_pipeline(stage_values: list[list[int]]) -> list[int]:
    """Final value per microbatch: input plus every stage bias.

    ``stage_values[t][b]`` is stage ``t``'s contribution to microbatch
    ``b`` (``t == 0`` is the input); the value emerging from the last
    stage accumulates all of them, mod 2**64.
    """
    if not stage_values:
        return []
    microbatches = len(stage_values[0])
    out = []
    for b in range(microbatches):
        acc = 0
        for stage in stage_values:
            acc = (acc + stage[b]) & _MASK64
        out.append(acc)
    return out


def golden_collective_finals(
    pattern: str,
    ranks: int,
    *,
    seed: int = 0,
    segments: int = 1,
    root: int = 0,
    stages: int = 2,
    microbatches: int = 4,
) -> dict[int, dict[int, int]]:
    """Expected final ``{rank: {slot: value}}`` states for one collective.

    Only the slots the collective *guarantees* are returned (e.g. a
    reduce constrains the root alone; an all-to-all constrains the
    ``ranks + i`` landing slots).  Inputs come from the shared
    ``contribution`` function; everything else is re-derived here from
    the mathematical definition.
    """
    from ..workloads.collectives import contribution

    if pattern == "ring-all-reduce":
        totals = golden_all_reduce(
            [
                [contribution(seed, r, s) for s in range(segments)]
                for r in range(ranks)
            ]
        )
        return {
            r: {s: totals[s] for s in range(segments)} for r in range(ranks)
        }
    if pattern == "rd-all-reduce":
        totals = golden_all_reduce(
            [[contribution(seed, r, 0)] for r in range(ranks)]
        )
        return {r: {0: totals[0]} for r in range(ranks)}
    if pattern == "broadcast":
        finals = golden_broadcast(
            [contribution(seed, r, 0) for r in range(ranks)], root % ranks
        )
        return {r: {0: finals[r]} for r in range(ranks)}
    if pattern == "reduce":
        total = golden_reduce([contribution(seed, r, 0) for r in range(ranks)])
        return {root % ranks: {0: total}}
    if pattern == "all-to-all":
        blocks = golden_all_to_all(
            [
                [contribution(seed, i, j) for j in range(ranks)]
                for i in range(ranks)
            ]
        )
        return {
            j: {ranks + i: blocks[j][i] for i in range(ranks)}
            for j in range(ranks)
        }
    if pattern == "pipeline":
        stages = max(1, min(stages, ranks))
        outs = golden_pipeline(
            [
                [contribution(seed, t, b) for b in range(microbatches)]
                for t in range(stages)
            ]
        )
        # The last stage's handler ranks are the final holders; re-derive
        # the contiguous partition naively (remainder front-loaded).
        base, rem = divmod(ranks, stages)
        last_start = sum(base + (1 if t < rem else 0) for t in range(stages - 1))
        last_width = base + (1 if stages - 1 < rem else 0)
        finals: dict[int, dict[int, int]] = {}
        for b in range(microbatches):
            handler = last_start + (b % last_width)
            finals.setdefault(handler, {})[b] = outs[b]
        return finals
    raise ValueError(f"no golden model for collective pattern {pattern!r}")


def golden_dataflow(
    layers: list[tuple[str, int]],
    edges: list[tuple[str, str, str]],
    inputs: dict[str, list[int]],
    biases: dict[str, list[int]],
) -> dict[str, list[int]]:
    """Naive layer-DAG evaluation: final activation vector per layer.

    ``layers`` are ``(name, width)`` in declaration order, ``edges`` are
    ``(src, dst, kind)`` with kind in dense/broadcast/reduce, ``inputs``
    seed the no-incoming-edge layers and ``biases`` seed the rest.
    Edges are applied in (destination topological position, declaration
    order) — the same publicly documented firing order the lowering
    uses — with its own topological sort and explicit loops.
    """
    widths = dict(layers)
    fed = {dst for _, dst, _ in edges}

    # Kahn's algorithm, independently.
    indegree = {name: 0 for name, _ in layers}
    for _, dst, _ in edges:
        indegree[dst] += 1
    ready = [name for name, _ in layers if indegree[name] == 0]
    topo: list[str] = []
    while ready:
        name = ready.pop(0)
        topo.append(name)
        for src, dst, _ in edges:
            if src == name:
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    ready.append(dst)
    if len(topo) != len(widths):
        raise ValueError("dataflow graph has a cycle")
    position = {name: i for i, name in enumerate(topo)}

    act: dict[str, list[int]] = {}
    for name, width in layers:
        source = inputs if name not in fed else biases
        act[name] = list(source[name])
        if len(act[name]) != width:
            raise ValueError(f"layer {name!r} seed width mismatch")

    ordered = sorted(
        range(len(edges)), key=lambda i: (position[edges[i][1]], i)
    )
    for i in ordered:
        src, dst, kind = edges[i]
        if kind == "dense":
            total = 0
            for v in act[src]:
                total = (total + v) & _MASK64
            act[dst] = [(v + total) & _MASK64 for v in act[dst]]
        elif kind == "broadcast":
            act[dst] = [act[src][0] for _ in act[dst]]
        elif kind == "reduce":
            acc = act[dst][0]
            for v in act[src]:
                acc = (acc + v) & _MASK64
            act[dst] = [acc] + act[dst][1:]
        else:
            raise ValueError(f"unknown edge kind {kind!r}")
    return act
