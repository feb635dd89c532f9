"""Task-level multi-tile emulator (the FPGA-validation analogue).

The paper validated the architecture by emulating a reduced-size
multi-tile system on FPGA and running graph workloads.  Instruction-level
simulation of thousands of cores is impractical in Python, so — exactly
like the paper scaled down to FPGA — this emulator runs *task-level*
kernels: workloads are expressed as per-tile compute steps plus explicit
inter-tile messages, and the emulator accounts cycles using the same
latency model as :class:`~repro.arch.system.WaferscaleSystem`.

The superstep model (compute locally, exchange messages, repeat) matches
how BFS/SSSP are written for such machines.  It is mail-driven: a
superstep computes only on the tiles that have mail plus the tiles the
workload declares active (every healthy tile unless it declares a set),
so a sparse frontier costs in proportion to its size, not the wafer's.
The message path respects the kernel's fault-aware network assignment —
so a workload run on a faulty wafer exercises the dual-network
resiliency machinery end to end.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..config import Coord
from ..errors import EmulatorError, NetworkError
from ..fastpath import VECTOR_ENGINE_KINDS, resolve_engine_kind
from ..noc.connectivity import _TABLE_CACHE
from ..noc.kernel import _round_trip_walk
from ..noc.routing import RoutingPolicy, dor_path
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
    """Drop the shared per-fault-map route tables (test/bench isolation)."""
    _TABLE_CACHE.clear()


def reference_route(
    system: WaferscaleSystem, src: Coord, dst: Coord
) -> tuple[int, bool, bool]:
    """One-way hops, detour flag and reachability of one flow, from scratch.

    The oracle derivation: walk the request and response ``dor_path`` of
    each network (:func:`~repro.noc.kernel._round_trip_walk`, not the
    segment tables the kernel and the vector engine's route table read);
    a clear round trip costs the path's hop count, any other pair goes
    through the kernel's detour tile at its two-leg Manhattan sum.  An
    unreachable pair is ``(0, False, False)``.
    """
    if _round_trip_walk(system.fault_map, src, dst):
        # Both networks' DoR paths are minimal: either gives the hops.
        return len(dor_path(src, dst, RoutingPolicy.XY)) - 1, False, True
    via = system.kernel.find_detour(src, dst)
    if via is None:
        return 0, False, False
    hops = (
        abs(via[0] - src[0]) + abs(via[1] - src[1])
        + abs(dst[0] - via[0]) + abs(dst[1] - via[1])
    )
    return hops, True, True


def message_words(words) -> int:
    """``words`` as a Python ``int`` >= 1; anything else is an EmulatorError.

    Python and numpy integers pass; ``bool``, ``float`` and ``str`` do
    not, so both engines price exactly the same integer word count.
    """
    if type(words) is not int:
        if isinstance(words, bool) or not isinstance(words, numbers.Integral):
            raise EmulatorError(f"message words must be an integer, got {words!r}")
        words = int(words)
    if words < 1:
        raise EmulatorError("message must carry at least one word")
    return words


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
        self._coords = system.healthy_coords()
        self._healthy: frozenset[Coord] = system._healthy_set
        # Only tiles with mail have an inbox entry (created on delivery).
        self._inboxes: dict[Coord, list[Message]] = {}
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
        if src not in self._healthy:
            raise EmulatorError(f"source tile {src} is faulty or absent")
        if dst not in self._healthy:
            raise EmulatorError(f"destination tile {dst} is faulty or absent")
        words = message_words(words)
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
        if src not in self._healthy:
            raise EmulatorError(f"source tile {src} is faulty or absent")
        words = message_words(words)
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

        inboxes = self._inboxes
        slowest = 0
        for (src, dst), messages in flows.items():
            if src == dst:
                inboxes.setdefault(dst, []).extend(messages)
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
            inboxes.setdefault(dst, []).extend(messages)
        return slowest

    # -- superstep loop -------------------------------------------------------

    def _schedule(self, active: Iterable[Coord] | None) -> frozenset[Coord] | None:
        """Validate a declared active set once; ``None`` means every tile."""
        if active is None:
            return None
        coords = tuple(active)
        for coord in coords:
            if coord not in self._healthy:
                raise EmulatorError(f"active tile {coord} is faulty or absent")
        return frozenset(coords)

    def superstep(
        self,
        compute: Callable[[Coord, list[Message], "Emulator"], int],
        active: Iterable[Coord] | None = None,
    ) -> bool:
        """Run one superstep.

        ``compute(tile, inbox, emulator)`` processes the tile's inbox,
        optionally calls :meth:`send`, and returns its local compute cycle
        count.  Returns True when the step did any work (messages moved or
        compute reported nonzero cycles) — the workload's convergence test.

        ``active`` declares the tiles with work of their own this step.
        ``compute`` runs on the tiles that have mail plus the tiles in
        ``active``, in row-major order; ``None`` (the default) runs it on
        every healthy tile.  The caller's contract: a tile outside
        ``active`` with an empty inbox would compute 0 cycles, send
        nothing and change no state, so skipping it changes nothing.
        """
        return self._superstep(compute, self._schedule(active))

    def _superstep(
        self,
        compute: Callable[[Coord, list[Message], "Emulator"], int],
        active: frozenset[Coord] | None,
    ) -> bool:
        inboxes = self._inboxes
        self._inboxes = {}
        # Row-major either way, so sends interleave as on every tile.
        schedule = self._coords if active is None else sorted(inboxes.keys() | active)

        busiest = 0
        for coord in schedule:
            cycles = compute(coord, inboxes.get(coord) or [], self)
            if cycles < 0:
                raise EmulatorError("compute cycles cannot be negative")
            if cycles > busiest:
                busiest = cycles

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
        return bool(network_cycles) or busiest > 0 or bool(inboxes)

    def run(
        self,
        compute: Callable[[Coord, list[Message], "Emulator"], int],
        max_supersteps: int = 10_000,
        active: Iterable[Coord] | None = None,
    ) -> EmulationStats:
        """Run supersteps until quiescent (no work and no messages).

        ``active`` is validated once and declared for every superstep
        (see :meth:`superstep`).
        """
        declared = self._schedule(active)
        for _ in range(max_supersteps):
            progressed = self._superstep(compute, declared)
            if not progressed and not self._outbox and not self._inboxes:
                return self.stats
        raise EmulatorError(f"workload did not converge in {max_supersteps} steps")
