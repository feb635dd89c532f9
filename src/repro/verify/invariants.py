"""Runtime invariant checkers for live simulation runs.

A checker is a small object that subscribes to a subsystem's events and
raises :class:`InvariantViolation` — carrying structured cycle/tile/
packet context — the moment the run leaves its legal state space.
Checkers are opt-in: without any attached, the instrumented hot paths
cost a single ``is None`` test and the simulation is bit-identical to an
unchecked run.

NoC checkers subscribe to the event hooks both engines of
:class:`~repro.noc.simulator.NocSimulator` fire:

=============  ==========================================================
hook           fired
=============  ==========================================================
``attach``     once, when the simulator is constructed
``on_grant``   per arbitration grant (link move, delivery or drop)
``on_deliver`` per packet delivered to its destination tile
``on_drop``    per in-flight packet dropped into a faulty link
``on_step``    per simulated cycle, after all moves applied
=============  ==========================================================

PDN checkers implement ``check_solution(solver, solution)`` and are run
by :class:`~repro.pdn.solver.PdnSolver` on every solve.  Emulator
checkers implement ``on_route(emulator, src, dst, cached)``, fired by
the vector emulator on every route-table lookup.  DfT chain integrity is stateless and exposed as
:class:`ChainIntegrityChecker` methods usable on any plan/session.

Violations are counted through the ambient :mod:`repro.obs` telemetry
(``verify.violations`` with a ``checker`` label) in addition to being
raised, so a campaign's metrics document records what fired.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from ..errors import ReproError
from ..obs.telemetry import resolve_telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..arch.emulator import Emulator
    from ..dft.multichain import MultiChainPlan
    from ..dft.unrolling import UnrollStep
    from ..noc.dualnetwork import NetworkId
    from ..noc.packets import Packet
    from ..noc.simulator import NocSimulator
    from ..pdn.solver import PdnSolution, PdnSolver


class InvariantViolation(ReproError):
    """A runtime invariant failed during a checked run.

    Carries enough structured context (subsystem, invariant name,
    cycle/tile/packet identifiers) for a campaign verdict to report the
    violation without re-running the trial.
    """

    def __init__(
        self,
        subsystem: str,
        invariant: str,
        message: str,
        context: dict[str, Any] | None = None,
    ) -> None:
        self.subsystem = subsystem
        self.invariant = invariant
        self.message = message
        self.context = dict(context or {})
        detail = ", ".join(f"{k}={v!r}" for k, v in self.context.items())
        super().__init__(
            f"[{subsystem}/{invariant}] {message}" + (f" ({detail})" if detail else "")
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-encodable record of the violation."""
        return {
            "subsystem": self.subsystem,
            "invariant": self.invariant,
            "message": self.message,
            "context": {k: repr(v) for k, v in self.context.items()},
        }


class InvariantChecker:
    """Base class: bookkeeping plus the violation-raising helper."""

    subsystem = "generic"
    name = "checker"

    def __init__(self) -> None:
        self.checks = 0
        self.violations = 0

    def fail(self, message: str, **context: Any) -> None:
        """Record and raise a violation (telemetry-counted)."""
        self.violations += 1
        tel = resolve_telemetry(None)
        if tel.enabled:
            tel.metrics.counter("verify.violations", checker=self.name).inc()
        raise InvariantViolation(self.subsystem, self.name, message, context)


# ---------------------------------------------------------------------------
# NoC checkers
# ---------------------------------------------------------------------------


class FlitConservationChecker(InvariantChecker):
    """Every cycle: injected == in-flight + delivered + dropped in flight.

    The packet analogue of charge conservation; O(1) per cycle, cheap
    enough to leave on for long runs.  Also checks that the per-network
    occupancy counters sum to the in-flight total.
    """

    subsystem = "noc"
    name = "flit_conservation"

    def on_step(self, sim: "NocSimulator") -> None:
        self.checks += 1
        in_flight = sim._in_flight
        delivered = len(sim.delivered_packets)
        balance = sim.injected_count - delivered - sim.dropped_in_flight
        if balance != in_flight or in_flight < 0:
            self.fail(
                "injected != in_flight + delivered + dropped_in_flight",
                cycle=sim.cycle,
                injected=sim.injected_count,
                delivered=delivered,
                dropped_in_flight=sim.dropped_in_flight,
                in_flight=in_flight,
            )
        net_total = sum(sim._net_occupancy.values())
        if net_total != in_flight:
            self.fail(
                "per-network occupancy counters disagree with in-flight total",
                cycle=sim.cycle,
                per_network=dict(sim._net_occupancy),
                in_flight=in_flight,
            )


class DeliveryChecker(InvariantChecker):
    """No duplicate and no impossible deliveries.

    A packet id may be delivered at most once; a delivery must land on
    the packet's destination tile at a latency no smaller than the
    Manhattan distance (DoR paths are minimal, one hop per cycle).
    """

    subsystem = "noc"
    name = "delivery"

    def __init__(self) -> None:
        super().__init__()
        self._seen_ids: set[int] = set()

    def on_deliver(self, sim: "NocSimulator", packet: "Packet", net: "NetworkId") -> None:
        self.checks += 1
        if packet.packet_id in self._seen_ids:
            self.fail(
                "packet delivered twice",
                cycle=sim.cycle,
                packet_id=packet.packet_id,
                src=packet.src,
                dst=packet.dst,
            )
        self._seen_ids.add(packet.packet_id)
        if packet.delivered_cycle != sim.cycle:
            self.fail(
                "delivery stamped with a foreign cycle",
                cycle=sim.cycle,
                delivered_cycle=packet.delivered_cycle,
                packet_id=packet.packet_id,
            )
        latency = packet.latency
        distance = abs(packet.src[0] - packet.dst[0]) + abs(packet.src[1] - packet.dst[1])
        if latency is None or latency < distance:
            self.fail(
                "latency below the Manhattan lower bound",
                cycle=sim.cycle,
                packet_id=packet.packet_id,
                src=packet.src,
                dst=packet.dst,
                latency=latency,
                distance=distance,
            )


class DorLegalityChecker(InvariantChecker):
    """Every grant takes the unique DoR-legal output port.

    Dimension-ordered routing admits exactly one output port per
    (position, destination, policy) triple; LOCAL is legal only at the
    destination tile.  Checked per grant, including grants that drop
    into a faulty link (the port toward the faulty neighbour is still
    the DoR port).
    """

    subsystem = "noc"
    name = "dor_legality"

    def on_grant(
        self,
        sim: "NocSimulator",
        net: "NetworkId",
        coord: tuple[int, int],
        out_code: int,
        in_code: int,
        packet: "Packet",
        rr_after: int,
    ) -> None:
        from ..noc.routing import dor_port_code

        self.checks += 1
        expected = dor_port_code(
            coord[0], coord[1], packet.dst[0], packet.dst[1], net.policy
        )
        if out_code != expected:
            self.fail(
                "grant used a non-DoR output port",
                cycle=sim.cycle,
                network=net.name,
                tile=coord,
                dst=packet.dst,
                out_port=out_code,
                expected=expected,
                packet_id=packet.packet_id,
            )


class RoundRobinChecker(InvariantChecker):
    """Round-robin pointers advance past every winner.

    After input ``p`` wins output ``o``, the arbiter's pointer for ``o``
    must sit at ``(p + 1) mod 5`` — the property that guarantees no
    input port can starve another over repeated contested cycles.
    """

    subsystem = "noc"
    name = "round_robin"

    def on_grant(
        self,
        sim: "NocSimulator",
        net: "NetworkId",
        coord: tuple[int, int],
        out_code: int,
        in_code: int,
        packet: "Packet",
        rr_after: int,
    ) -> None:
        self.checks += 1
        expected = (in_code + 1) % 5
        if rr_after != expected:
            self.fail(
                "round-robin pointer did not advance past the winner",
                cycle=sim.cycle,
                network=net.name,
                tile=coord,
                out_port=out_code,
                winner=in_code,
                pointer=rr_after,
                expected=expected,
            )


class FifoBoundChecker(InvariantChecker):
    """No FIFO ever exceeds its configured depth (credit flow honoured).

    O(routers) per cycle — the thorough end of the checker catalog; use
    it in campaigns and differential tests rather than long soak runs.
    """

    subsystem = "noc"
    name = "fifo_bound"

    def on_step(self, sim: "NocSimulator") -> None:
        self.checks += 1
        depth = sim.fifo_depth
        total = 0
        for net, coord, port_code, length in sim._iter_fifo_lengths():
            total += length
            if length > depth:
                self.fail(
                    "FIFO exceeded its depth (backpressure ignored)",
                    cycle=sim.cycle,
                    network=net.name,
                    tile=coord,
                    port=port_code,
                    occupancy=length,
                    depth=depth,
                )
        if total != sim._in_flight:
            self.fail(
                "summed FIFO occupancy disagrees with the in-flight counter",
                cycle=sim.cycle,
                buffered=total,
                in_flight=sim._in_flight,
            )


def default_noc_checkers() -> list[InvariantChecker]:
    """The cheap always-on set: O(1)-per-cycle conservation + delivery."""
    return [FlitConservationChecker(), DeliveryChecker()]


def full_noc_checkers() -> list[InvariantChecker]:
    """The thorough set: adds per-grant DoR/round-robin and per-cycle FIFO scans."""
    return [
        FlitConservationChecker(),
        DeliveryChecker(),
        DorLegalityChecker(),
        RoundRobinChecker(),
        FifoBoundChecker(),
    ]


# ---------------------------------------------------------------------------
# PDN checkers
# ---------------------------------------------------------------------------


class KclResidualChecker(InvariantChecker):
    """Kirchhoff's current law holds at every node of a solved mesh.

    Verifies ``|L · v − (G_edge·V_edge − I_load)| < tol`` — the defining
    equation of the nodal solve — directly on the returned solution, so
    a stale factorization, a wrong right-hand side, or a perturbed
    voltage map all trip it.  ``tol_a`` defaults to 1e-4 A: far above
    LU round-off (~1e-10) and the constant-power fixed point's
    linearisation residual (~1e-5), far below any real defect (a 1 mV
    voltage error on a milliohm mesh leaves amps of residual).
    """

    subsystem = "pdn"
    name = "kcl_residual"

    def __init__(self, tol_a: float = 1e-4) -> None:
        super().__init__()
        self.tol_a = tol_a

    def check_solution(self, solver: "PdnSolver", solution: "PdnSolution") -> None:
        import numpy as np

        self.checks += 1
        laplacian, edge_g = solver._ensure_system()
        v = solution.voltages.reshape(-1)
        rhs = edge_g * solution.edge_voltage - solution.currents.reshape(-1)
        residual = laplacian @ v - rhs
        worst = int(np.argmax(np.abs(residual)))
        worst_val = float(residual[worst])
        if abs(worst_val) >= self.tol_a:
            cols = solution.config.cols
            self.fail(
                "KCL residual above tolerance",
                node=(worst // cols, worst % cols),
                residual_a=worst_val,
                tol_a=self.tol_a,
                iterations=solution.iterations,
            )


class DroopBoundChecker(InvariantChecker):
    """Delivered voltages stay inside the physically possible band.

    A purely resistive mesh fed from the edge can only droop: every node
    voltage must lie in ``(floor_v, edge_voltage]``.  A solver bug that
    overshoots the supply or drives a node to/below the floor trips it.
    """

    subsystem = "pdn"
    name = "droop_bound"

    def __init__(self, floor_v: float = 0.0, tol_v: float = 1e-9) -> None:
        super().__init__()
        self.floor_v = floor_v
        self.tol_v = tol_v

    def check_solution(self, solver: "PdnSolver", solution: "PdnSolution") -> None:
        self.checks += 1
        v_max = solution.max_voltage
        v_min = solution.min_voltage
        if v_max > solution.edge_voltage + self.tol_v:
            self.fail(
                "node voltage above the edge supply",
                max_voltage=v_max,
                edge_voltage=solution.edge_voltage,
            )
        if v_min <= self.floor_v:
            self.fail(
                "node voltage at/below the physical floor",
                min_voltage=v_min,
                floor_v=self.floor_v,
            )


# ---------------------------------------------------------------------------
# Emulator checkers
# ---------------------------------------------------------------------------


class RouteCoherenceChecker(InvariantChecker):
    """Vector emulator routes agree with the scalar oracle's derivation.

    :class:`~repro.arch.vectoremu.VectorEmulator` resolves flows from a
    per-fault-map route table (direct-reachability matrix, closed-form
    Manhattan hops, memoised detours).  On every ``sample``-th routed
    flow this checker re-derives the route with
    :func:`~repro.arch.emulator.reference_route` and compares.  Direct
    pairs are re-derived by walking the request and response
    ``dor_path``; a detour's via tile comes from the same shared table,
    whose search the tests check against
    :func:`~repro.noc.kernel._find_detour_reference`.  The scalar
    emulator derives every route that way already and has no cached
    routes to check.  ``sample=1`` checks every flow (campaigns);
    larger values amortise the cost on long runs.
    """

    subsystem = "emu"
    name = "route_coherence"

    def __init__(self, sample: int = 16) -> None:
        super().__init__()
        if sample < 1:
            raise ReproError("sample must be >= 1")
        self.sample = sample
        self._hits = 0

    def on_route(
        self,
        emulator: "Emulator",
        src: tuple[int, int],
        dst: tuple[int, int],
        cached: tuple[int, bool, bool],
    ) -> None:
        self._hits += 1
        if self._hits % self.sample:
            return
        from ..arch.emulator import reference_route

        self.checks += 1
        expected = reference_route(emulator.system, src, dst)
        if tuple(cached) != expected:
            self.fail(
                "cached route disagrees with recomputation",
                src=src,
                dst=dst,
                cached=tuple(cached),
                recomputed=expected,
            )


# ---------------------------------------------------------------------------
# DfT chain integrity
# ---------------------------------------------------------------------------


class ChainIntegrityChecker(InvariantChecker):
    """JTAG chain plans stay a permutation of the tile set.

    ``check_plan`` verifies a :class:`~repro.dft.multichain.
    MultiChainPlan` covers every tile of its configuration exactly once
    (no duplicate, no lost tile — the property row remapping and chain
    reorganisations must preserve).  ``check_unroll`` verifies a
    recorded unrolling session walked the chain as a strict prefix,
    stopped at the first failure, and agreed with the ground-truth
    health vector at every step.
    """

    subsystem = "dft"
    name = "chain_integrity"

    def check_plan(self, plan: "MultiChainPlan") -> None:
        self.checks += 1
        cfg = plan.config
        seen: dict[tuple[int, int], int] = {}
        for chain in plan.chains:
            for tile in chain.tiles:
                r, c = tile
                if not (0 <= r < cfg.rows and 0 <= c < cfg.cols):
                    self.fail(
                        "chain tile outside the array",
                        chain=chain.chain_index,
                        tile=tile,
                        rows=cfg.rows,
                        cols=cfg.cols,
                    )
                if tile in seen:
                    self.fail(
                        "tile appears in two chain positions",
                        tile=tile,
                        first_chain=seen[tile],
                        second_chain=chain.chain_index,
                    )
                seen[tile] = chain.chain_index
        if len(seen) != cfg.tiles:
            self.fail(
                "chains lost tiles from the array",
                covered=len(seen),
                expected=cfg.tiles,
            )

    def check_unroll(self, steps: Iterable["UnrollStep"], health: list[bool]) -> None:
        self.checks += 1
        previous = -1
        failed = False
        for step in steps:
            if failed:
                self.fail(
                    "unrolling continued past the first failure",
                    tile=step.tile_index,
                )
            if step.tile_index != previous + 1:
                self.fail(
                    "unrolling skipped a chain position",
                    tile=step.tile_index,
                    expected=previous + 1,
                )
            if step.visible_chain_length != step.tile_index + 1:
                self.fail(
                    "visible chain length disagrees with the frontier",
                    tile=step.tile_index,
                    visible=step.visible_chain_length,
                )
            if step.tile_index >= len(health):
                self.fail(
                    "unrolling walked past the chain end",
                    tile=step.tile_index,
                    chain_length=len(health),
                )
            if step.passed != health[step.tile_index]:
                self.fail(
                    "test verdict disagrees with ground-truth health",
                    tile=step.tile_index,
                    passed=step.passed,
                    healthy=health[step.tile_index],
                )
            previous = step.tile_index
            failed = not step.passed
