"""Task-level multi-tile emulator (the FPGA-validation analogue).

The paper validated the architecture by emulating a reduced-size
multi-tile system on FPGA and running graph workloads.  Instruction-level
simulation of thousands of cores is impractical in Python, so — exactly
like the paper scaled down to FPGA — this emulator runs *task-level*
kernels: workloads are expressed as per-tile compute steps plus explicit
inter-tile messages, and the emulator accounts cycles using the same
latency model as :class:`~repro.arch.system.WaferscaleSystem`.

The superstep model (compute locally, exchange messages, repeat) matches
how BFS/SSSP are written for such machines, and the message path respects
the kernel's fault-aware network assignment — so a workload run on a
faulty wafer exercises the dual-network resiliency machinery end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..config import Coord
from ..errors import EmulatorError, NetworkError
from ..fastpath import VECTOR_ENGINE_KINDS, resolve_engine_kind
from ..noc.routing import dor_path
from ..obs.telemetry import Telemetry, resolve_telemetry
from .system import (
    DETOUR_SOFTWARE_PENALTY,
    HOP_LATENCY,
    NETWORK_BASE,
    SERVICE_LATENCY,
    WaferscaleSystem,
)

#: Engine kinds the emulator accepts.  ``"fast"`` and ``"reference"``
#: both run the scalar oracle below; ``"vector"`` builds
#: :class:`~repro.arch.vectoremu.VectorEmulator`.
ENGINES = VECTOR_ENGINE_KINDS


def clear_route_cache() -> None:
    """Drop the vector engine's shared route tables (test/bench isolation)."""
    from .vectoremu import _TABLE_CACHE

    _TABLE_CACHE.clear()


def reference_route(
    system: WaferscaleSystem, src: Coord, dst: Coord
) -> tuple[int, bool, bool]:
    """One-way hops, detour flag and reachability of one flow, from scratch.

    The oracle derivation: the kernel's fault-aware network assignment,
    then an explicit ``dor_path`` walk for a direct route or the
    two-leg Manhattan sum through the detour tile.  An unreachable pair
    is ``(0, False, False)``.
    """
    assignment = system.kernel.assign(src, dst, allow_detour=True)
    if assignment.is_detour:
        via = assignment.detour_via
        assert via is not None
        hops = (
            abs(via[0] - src[0]) + abs(via[1] - src[1])
            + abs(dst[0] - via[0]) + abs(dst[1] - via[1])
        )
        return hops, True, True
    if assignment.reachable:
        assert assignment.network is not None
        return len(dor_path(src, dst, assignment.network.policy)) - 1, False, True
    return 0, False, False


@dataclass
class Message:
    """One inter-tile message (a packet's worth of payload)."""

    src: Coord
    dst: Coord
    payload: object
    words: int = 2          # 64-bit payload = 2 words


@dataclass
class EmulationStats:
    """Accounting of one emulated workload run."""

    supersteps: int = 0
    messages_sent: int = 0
    message_hops: int = 0
    detoured_messages: int = 0
    local_compute_cycles: int = 0
    network_cycles: int = 0
    per_step_messages: list[int] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        """Estimated cycles: compute and communication overlap per step."""
        return max(self.local_compute_cycles, self.network_cycles)

    @property
    def mean_hops_per_message(self) -> float:
        """Average one-way hops per message."""
        if self.messages_sent == 0:
            return 0.0
        return self.message_hops / self.messages_sent


class Emulator:
    """Superstep-driven task-level emulator over a waferscale system.

    This class is the scalar oracle (``engine="reference"`` or
    ``"fast"``): every flow is routed from scratch by
    :func:`reference_route`.  ``engine="vector"`` builds
    :class:`~repro.arch.vectoremu.VectorEmulator` instead.
    """

    #: Histogram buckets for one-way hops per message.
    HOP_BUCKETS = tuple(float(2**i) for i in range(0, 8))

    def __new__(
        cls,
        system: WaferscaleSystem | None = None,
        telemetry: Telemetry | None = None,
        engine: str | None = None,
        checkers=None,
    ):
        # Factory dispatch (mirrors NocSimulator): Emulator(engine="vector")
        # builds the struct-of-arrays engine.  Resolution/validation of the
        # keyword happens once, in ``__init__``.
        if cls is Emulator and engine == "vector":
            from .vectoremu import VectorEmulator

            return super().__new__(VectorEmulator)
        return super().__new__(cls)

    def __init__(
        self,
        system: WaferscaleSystem,
        telemetry: Telemetry | None = None,
        engine: str | None = None,
        checkers=None,
    ):
        self.system = system
        self.engine = resolve_engine_kind(
            engine, entry_point="Emulator", kinds=ENGINES
        )
        self.stats = EmulationStats()
        # Route checkers (``on_route``) fire on the vector engine's route
        # table lookups; the scalar path derives every route from scratch
        # and has no cached routes to check.
        self.checkers = list(checkers or ())
        fns = [c.on_route for c in self.checkers if hasattr(c, "on_route")]
        self._chk_route = fns or None
        self._inboxes: dict[Coord, list[Message]] = {
            coord: [] for coord in system.healthy_coords()
        }
        self._outbox: list[Message] = []

        tel = resolve_telemetry(telemetry)
        self.telemetry = tel
        self._obs: Telemetry | None = tel if tel.enabled else None
        self._timeline_cycles = 0        # trace timestamps: emulated cycles
        if self._obs is not None:
            metrics = tel.metrics
            self._m_messages = metrics.counter("emu.messages_sent")
            self._m_detoured = metrics.counter("emu.detoured_messages")
            self._m_supersteps = metrics.counter("emu.supersteps")
            self._m_hops = metrics.histogram(
                "emu.hops_per_message", buckets=self.HOP_BUCKETS
            )

    # -- messaging ---------------------------------------------------------

    def send(self, src: Coord, dst: Coord, payload: object, words: int = 2) -> None:
        """Queue a message for delivery at the next superstep barrier."""
        if src not in self._inboxes:
            raise EmulatorError(f"source tile {src} is faulty or absent")
        if dst not in self._inboxes:
            raise EmulatorError(f"destination tile {dst} is faulty or absent")
        if words < 1:
            raise EmulatorError("message must carry at least one word")
        self._outbox.append(Message(src=src, dst=dst, payload=payload, words=words))

    def send_batch(
        self,
        src: Coord,
        dsts,
        payload: object = None,
        words: int = 2,
    ) -> None:
        """Queue one message from ``src`` to every tile in ``dsts``.

        ``dsts`` is a sequence of coordinates or a numpy integer array of
        flat row-major tile ids.  Semantically identical to calling
        :meth:`send` once per destination with the same payload and word
        count; the vector engine overrides it to append the whole batch as
        flat arrays and materialise :class:`Message` objects lazily at the
        delivery barrier.
        """
        cols = self.system.config.cols
        for dst in dsts:
            if not isinstance(dst, tuple):
                dst = (int(dst) // cols, int(dst) % cols)
            self.send(src, dst, payload, words=words)

    def _route(self, src: Coord, dst: Coord) -> tuple[int, bool]:
        """One-way hops and detour flag for one flow (:func:`reference_route`)."""
        hops, is_detour, reachable = reference_route(self.system, src, dst)
        if not reachable:
            raise NetworkError(f"no path for messages {src} -> {dst}")
        return hops, is_detour

    def _deliver(self) -> int:
        """Deliver queued messages; returns the step's network cycle cost.

        Each (src, dst) flow is serialised on its assigned network; flows
        proceed in parallel, so the step cost is the slowest flow.
        """
        flows: dict[tuple[Coord, Coord], list[Message]] = {}
        for message in self._outbox:
            flows.setdefault((message.src, message.dst), []).append(message)
        self._outbox = []

        slowest = 0
        for (src, dst), messages in flows.items():
            if src == dst:
                for message in messages:
                    self._inboxes[dst].append(message)
                continue
            hops, is_detour = self._route(src, dst)
            if is_detour:
                per_message = DETOUR_SOFTWARE_PENALTY
                self.stats.detoured_messages += len(messages)
                if self._obs is not None:
                    self._m_detoured.inc(len(messages))
            else:
                per_message = 0

            # First message pays the full path; the rest pipeline behind it
            # (one packet per cycle per flow), each paying its word count.
            words = sum(m.words for m in messages)
            flow_cycles = (
                NETWORK_BASE
                + SERVICE_LATENCY
                + hops * HOP_LATENCY
                + words
                + per_message * len(messages)
            )
            slowest = max(slowest, flow_cycles)
            self.stats.messages_sent += len(messages)
            self.stats.message_hops += hops * len(messages)
            if self._obs is not None:
                self._m_messages.inc(len(messages))
                self._m_hops.observe(hops, count=len(messages))
                self.telemetry.metrics.counter(
                    "emu.tile_messages", tile=f"{src[0]},{src[1]}"
                ).inc(len(messages))
            for message in messages:
                self._inboxes[dst].append(message)
        return slowest

    # -- superstep loop -------------------------------------------------------

    def superstep(
        self,
        compute: Callable[[Coord, list[Message], "Emulator"], int],
    ) -> bool:
        """Run one superstep.

        ``compute(tile, inbox, emulator)`` processes the tile's inbox,
        optionally calls :meth:`send`, and returns its local compute cycle
        count.  Returns True when the step did any work (messages moved or
        compute reported nonzero cycles) — the workload's convergence test.
        """
        inboxes = self._inboxes
        self._inboxes = {coord: [] for coord in inboxes}

        busiest = 0
        any_messages = False
        for coord, inbox in inboxes.items():
            cycles = compute(coord, inbox, self)
            if cycles < 0:
                raise EmulatorError("compute cycles cannot be negative")
            busiest = max(busiest, cycles)
            any_messages = any_messages or bool(inbox)

        sent_before = self.stats.messages_sent
        network_cycles = self._deliver()
        self.stats.supersteps += 1
        self.stats.local_compute_cycles += busiest
        self.stats.network_cycles += network_cycles
        self.stats.per_step_messages.append(self.stats.messages_sent - sent_before)
        if self._obs is not None:
            self._m_supersteps.inc()
            step_messages = self.stats.messages_sent - sent_before
            step_cycles = max(busiest, network_cycles)
            start = self._timeline_cycles
            self._timeline_cycles += max(step_cycles, 1)
            self.telemetry.tracer.complete(
                f"superstep {self.stats.supersteps - 1}",
                ts=start,
                dur=max(step_cycles, 1),
                cat="emu",
                compute_cycles=busiest,
                network_cycles=network_cycles,
                messages=step_messages,
            )
        return bool(network_cycles) or busiest > 0 or any_messages

    def run(
        self,
        compute: Callable[[Coord, list[Message], "Emulator"], int],
        max_supersteps: int = 10_000,
    ) -> EmulationStats:
        """Run supersteps until quiescent (no work and no messages)."""
        for _ in range(max_supersteps):
            progressed = self.superstep(compute)
            if not progressed and not self._outbox and not any(
                self._inboxes.values()
            ):
                return self.stats
        raise EmulatorError(f"workload did not converge in {max_supersteps} steps")
