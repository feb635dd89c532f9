"""Collective-communication workloads with self-checking oracles.

The paper's evaluation stops at BFS-style kernels, but the traffic that
dominates wafer-scale machines today is *collectives*: all-reduce for
data parallelism, all-to-all for tensor/expert parallelism, broadcast
and reduce trees for control, pipeline stage-to-stage activations.  This
module expresses each collective as a **phase program** — a list of
barrier-separated transfer phases over abstract rank slots — and then
compiles that one description to both execution backends:

* :func:`compile_noc` turns a program into a cycle-level packet schedule
  for :class:`~repro.noc.simulator.NocSimulator` (every engine), with
  fault-aware network assignment and two-leg detours around faulty
  chiplets via a fresh :class:`~repro.noc.kernel.KernelRouter`;
* :class:`CollectiveDriver` runs the same program superstep by superstep
  on the task-level :class:`~repro.arch.emulator.Emulator` (in the
  :class:`~repro.workloads.waves.FrontierWave` style), computing the
  reduction values *live* in per-tile compute.

Every collective carries a completion oracle: the NoC backend checks the
delivered-packet multiset of every ``(phase, src, dst)`` flow and
replays the deliveries into final per-tile states; the emulator backend
checks every live tile's final slot values.  Violations raise a
structured :class:`~repro.verify.invariants.InvariantViolation` with
tile/phase/slot context.  Independent naive models for the *expected*
results live in :mod:`repro.verify.golden` — this module never imports
them, so the conformance campaigns in :mod:`repro.verify.campaign`
compare two genuinely separate implementations.

Phase semantics
---------------
All transfers of one phase read state as it stood *before* the phase
(simultaneous exchange is legal: ranks ``i`` and ``i ^ d`` may swap
partials in one phase).  ``op="sum"`` accumulates mod 2**64 into the
destination slot, ``op="set"`` overwrites it.  Within one phase a
``(dst, dst_slot)`` pair may receive any number of ``sum`` transfers but
at most one ``set`` and never a mix — :meth:`CollectiveProgram.validate`
enforces this, which is what makes delivery order irrelevant and the
programs bit-identical across engines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Iterable

import numpy as np

from ..config import Coord, SystemConfig
from ..errors import NetworkError, WorkloadError
from ..noc.dualnetwork import NetworkId
from ..noc.faults import FaultMap, random_fault_map
from ..noc.kernel import KernelRouter
from ..noc.packets import ADDRESS_BITS, Packet, PacketKind

#: All collective patterns :func:`build_program` understands.
PATTERNS = (
    "ring-all-reduce",
    "rd-all-reduce",
    "all-to-all",
    "broadcast",
    "reduce",
    "pipeline",
)

#: Rank-placement policies over the healthy tiles.
PLACEMENTS = ("row-major", "column-major", "shuffled")

MASK64 = (1 << 64) - 1


def contribution(seed: int, rank: int, slot: int = 0) -> int:
    """The deterministic input value rank ``rank`` contributes to ``slot``.

    A splitmix-style hash truncated to 32 bits, so sums over any
    realistic rank count stay far below the packet payload's 64-bit
    field.  Both the programs built here and the naive oracles in
    :mod:`repro.verify.golden` draw *inputs* from this one function —
    shared input data, never shared reduction logic.
    """
    x = (
        (seed & MASK64) * 0x9E3779B97F4A7C15
        + rank * 0x100000001B3
        + slot * 0x01000193
        + 0x2545F4914F6CDD1D
    ) & MASK64
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & MASK64
    x ^= x >> 29
    return x & 0xFFFFFFFF


def _violation(invariant: str, message: str, context: dict[str, Any]):
    """Raise a structured collective-oracle violation (lazy import).

    :mod:`repro.verify` imports this module through its campaign, so the
    invariant type is resolved at raise time to keep imports acyclic.
    """
    from ..verify.invariants import InvariantViolation

    raise InvariantViolation("collective", invariant, message, context)


# ---------------------------------------------------------------------------
# phase programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Transfer:
    """One rank-to-rank slot transfer inside a phase."""

    src: int
    dst: int
    src_slot: int
    dst_slot: int
    op: str  # "sum" | "set"


@dataclass
class CollectiveProgram:
    """A collective as barrier-separated transfer phases over rank slots."""

    name: str
    ranks: int
    phases: list[list[Transfer]]
    init: dict[int, dict[int, int]]
    #: Effective parameters the program was built with (after clamping),
    #: so oracles can re-derive expectations from the same knobs.
    params: dict[str, int] = field(default_factory=dict)

    @property
    def transfer_count(self) -> int:
        """Total transfers across all phases."""
        return sum(len(phase) for phase in self.phases)

    def validate(self) -> None:
        """Reject programs whose phase semantics would be ambiguous."""
        for p, phase in enumerate(self.phases):
            writers: dict[tuple[int, int], str] = {}
            for t in phase:
                if t.op not in ("sum", "set"):
                    raise WorkloadError(f"unknown transfer op {t.op!r}")
                if not (0 <= t.src < self.ranks and 0 <= t.dst < self.ranks):
                    raise WorkloadError(
                        f"transfer {t} outside rank range 0..{self.ranks - 1}"
                    )
                if t.src == t.dst:
                    raise WorkloadError(f"self-transfer {t} in phase {p}")
                key = (t.dst, t.dst_slot)
                seen = writers.get(key)
                if seen is not None and (seen == "set" or t.op == "set"):
                    raise WorkloadError(
                        f"phase {p} writes rank {t.dst} slot {t.dst_slot} "
                        f"with conflicting ops ({seen} then {t.op})"
                    )
                writers[key] = t.op


@dataclass
class ProgramTrace:
    """The values a program moves: per-phase payloads and final states."""

    phase_values: list[list[int]]
    finals: dict[int, dict[int, int]]


def execute_program(program: CollectiveProgram) -> ProgramTrace:
    """Run a program's phase semantics in plain Python.

    Each phase reads the pre-phase state for every transfer, then
    applies all writes — the executable definition of the barrier
    semantics both backends must reproduce.
    """
    state: dict[int, dict[int, int]] = {
        r: dict(program.init.get(r, {})) for r in range(program.ranks)
    }
    phase_values: list[list[int]] = []
    for phase in program.phases:
        values = [state[t.src].get(t.src_slot, 0) for t in phase]
        for t, value in zip(phase, values):
            slot = state[t.dst]
            if t.op == "sum":
                slot[t.dst_slot] = (slot.get(t.dst_slot, 0) + value) & MASK64
            else:
                slot[t.dst_slot] = value
        phase_values.append(values)
    return ProgramTrace(phase_values=phase_values, finals=state)


# ---------------------------------------------------------------------------
# collective builders
# ---------------------------------------------------------------------------


def ring_all_reduce(
    ranks: int, *, segments: int = 1, seed: int = 0
) -> CollectiveProgram:
    """Segmented ring all-reduce: ``2*(ranks-1)`` reduce+gather phases.

    Segment ``s`` starts its ring at rank ``s % ranks``, so distinct
    segments stream over disjoint (src, dst) pairs of each phase — the
    classic bandwidth-optimal rotation.  Requires ``segments <= ranks``.
    """
    if ranks < 1:
        raise WorkloadError("ring all-reduce needs at least one rank")
    if not 1 <= segments <= ranks:
        raise WorkloadError(
            f"ring all-reduce supports 1..{ranks} segments, got {segments}"
        )
    init = {
        r: {s: contribution(seed, r, s) for s in range(segments)}
        for r in range(ranks)
    }
    phases: list[list[Transfer]] = []
    if ranks > 1:
        for k in range(ranks - 1):
            phases.append(
                [
                    Transfer((s + k) % ranks, (s + k + 1) % ranks, s, s, "sum")
                    for s in range(segments)
                ]
            )
        for k in range(ranks - 1):
            phases.append(
                [
                    Transfer(
                        (s + ranks - 1 + k) % ranks,
                        (s + ranks + k) % ranks,
                        s,
                        s,
                        "set",
                    )
                    for s in range(segments)
                ]
            )
    return CollectiveProgram(
        name="ring-all-reduce",
        ranks=ranks,
        phases=phases,
        init=init,
        params={"seed": seed, "segments": segments},
    )


def recursive_doubling_all_reduce(ranks: int, *, seed: int = 0) -> CollectiveProgram:
    """Recursive-doubling all-reduce with fold/unfold for non-powers of 2.

    Extra ranks fold their contribution into a power-of-two core, the
    core pairwise-exchanges partial sums for ``log2`` phases, and the
    result unfolds back out — ``log2(ranks) + 2`` phases total.
    """
    if ranks < 1:
        raise WorkloadError("all-reduce needs at least one rank")
    init = {r: {0: contribution(seed, r, 0)} for r in range(ranks)}
    power = 1 << (ranks.bit_length() - 1)
    extras = ranks - power
    phases: list[list[Transfer]] = []
    if extras:
        phases.append(
            [Transfer(power + i, i, 0, 0, "sum") for i in range(extras)]
        )
    d = 1
    while d < power:
        phases.append([Transfer(i, i ^ d, 0, 0, "sum") for i in range(power)])
        d <<= 1
    if extras:
        phases.append(
            [Transfer(i, power + i, 0, 0, "set") for i in range(extras)]
        )
    return CollectiveProgram(
        name="rd-all-reduce",
        ranks=ranks,
        phases=phases,
        init=init,
        params={"seed": seed},
    )


def _binomial_phases(ranks: int, root: int) -> list[list[tuple[int, int]]]:
    """Binomial-tree edges per doubling round, as (parent, child) ranks."""
    rounds: list[list[tuple[int, int]]] = []
    d = 1
    while d < ranks:
        edges = [
            ((root + rel) % ranks, (root + rel + d) % ranks)
            for rel in range(d)
            if rel + d < ranks
        ]
        rounds.append(edges)
        d <<= 1
    return rounds


def broadcast(ranks: int, *, root: int = 0, seed: int = 0) -> CollectiveProgram:
    """Binomial-tree broadcast of the root's value to every rank."""
    if ranks < 1:
        raise WorkloadError("broadcast needs at least one rank")
    root %= ranks
    init = {r: {0: 0} for r in range(ranks)}
    init[root][0] = contribution(seed, root, 0)
    phases = [
        [Transfer(parent, child, 0, 0, "set") for parent, child in round_edges]
        for round_edges in _binomial_phases(ranks, root)
    ]
    return CollectiveProgram(
        name="broadcast",
        ranks=ranks,
        phases=phases,
        init=init,
        params={"seed": seed, "root": root},
    )


def tree_reduce(ranks: int, *, root: int = 0, seed: int = 0) -> CollectiveProgram:
    """Binomial-tree reduction of every rank's value into the root.

    The reversed broadcast tree: each doubling round's edges run child
    to parent with ``op="sum"``, in reverse round order, so every
    subtree folds exactly once into the root.
    """
    if ranks < 1:
        raise WorkloadError("reduce needs at least one rank")
    root %= ranks
    init = {r: {0: contribution(seed, r, 0)} for r in range(ranks)}
    phases = [
        [Transfer(child, parent, 0, 0, "sum") for parent, child in round_edges]
        for round_edges in reversed(_binomial_phases(ranks, root))
    ]
    return CollectiveProgram(
        name="reduce",
        ranks=ranks,
        phases=phases,
        init=init,
        params={"seed": seed, "root": root},
    )


def all_to_all(ranks: int, *, seed: int = 0) -> CollectiveProgram:
    """Rotation-scheduled all-to-all (personalized exchange).

    Rank ``i`` holds outgoing block ``j`` in slot ``j`` and collects
    incoming block ``i`` from every peer into slot ``ranks + i``; phase
    ``k`` sends each rank's block for peer ``(i + k) % ranks``, so every
    phase is a perfect matching (no two transfers share a tile).
    """
    if ranks < 1:
        raise WorkloadError("all-to-all needs at least one rank")
    init: dict[int, dict[int, int]] = {}
    for i in range(ranks):
        slots = {j: contribution(seed, i, j) for j in range(ranks)}
        slots[ranks + i] = contribution(seed, i, i)  # own block, no hop
        init[i] = slots
    phases = [
        [
            Transfer(i, (i + k) % ranks, (i + k) % ranks, ranks + i, "set")
            for i in range(ranks)
        ]
        for k in range(1, ranks)
    ]
    return CollectiveProgram(
        name="all-to-all",
        ranks=ranks,
        phases=phases,
        init=init,
        params={"seed": seed},
    )


def pipeline_stages(ranks: int, stages: int) -> list[list[int]]:
    """Contiguous rank groups per pipeline stage (remainder front-loaded)."""
    if not 1 <= stages <= ranks:
        raise WorkloadError(f"pipeline supports 1..{ranks} stages, got {stages}")
    base, rem = divmod(ranks, stages)
    groups: list[list[int]] = []
    start = 0
    for t in range(stages):
        size = base + (1 if t < rem else 0)
        groups.append(list(range(start, start + size)))
        start += size
    return groups


def pipeline(
    ranks: int,
    *,
    stages: int = 2,
    microbatches: int = 4,
    seed: int = 0,
) -> CollectiveProgram:
    """Pipeline-parallel stage traffic with per-stage accumulation.

    Microbatch ``b`` enters at stage 0 with value ``contribution(seed,
    0, b)`` and flows stage to stage in the classic staggered schedule
    (phase ``T`` carries every microbatch with ``T = b + stage``).  Each
    stage's handler rank holds a stage bias ``contribution(seed, stage,
    b)`` in the microbatch's slot and the transfer accumulates into it,
    so the value emerging from the last stage is the input plus every
    stage bias — a reduction the oracle can pin per microbatch.
    """
    if ranks < 1:
        raise WorkloadError("pipeline needs at least one rank")
    if microbatches < 1:
        raise WorkloadError("pipeline needs at least one microbatch")
    groups = pipeline_stages(ranks, stages)

    def handler(t: int, b: int) -> int:
        return groups[t][b % len(groups[t])]

    init: dict[int, dict[int, int]] = {r: {} for r in range(ranks)}
    for t in range(stages):
        for b in range(microbatches):
            init[handler(t, b)][b] = contribution(seed, t, b)

    phases: list[list[Transfer]] = []
    if stages > 1:
        for big_t in range(microbatches + stages - 2):
            phase = [
                Transfer(handler(t, b), handler(t + 1, b), b, b, "sum")
                for b in range(microbatches)
                for t in (big_t - b,)
                if 0 <= t <= stages - 2
            ]
            phases.append(phase)
    return CollectiveProgram(
        name="pipeline",
        ranks=ranks,
        phases=phases,
        init=init,
        params={"seed": seed, "stages": stages, "microbatches": microbatches},
    )


# ---------------------------------------------------------------------------
# specs and rank placement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CollectiveSpec:
    """Everything needed to instantiate one collective on one wafer."""

    pattern: str = "ring-all-reduce"
    seed: int = 0
    ranks: int | None = None        # None => every healthy tile participates
    segments: int = 1               # ring all-reduce
    root: int = 0                   # broadcast / reduce
    stages: int = 2                 # pipeline
    microbatches: int = 4           # pipeline
    placement: str = "row-major"


def select_ranks(fault_map: FaultMap, spec: CollectiveSpec) -> list[Coord]:
    """Rank-ordered participant tiles under the spec's placement policy."""
    if spec.placement not in PLACEMENTS:
        raise WorkloadError(
            f"unknown placement {spec.placement!r}; pick one of {PLACEMENTS}"
        )
    healthy = fault_map.healthy_tiles()
    if spec.placement == "column-major":
        healthy = sorted(healthy, key=lambda rc: (rc[1], rc[0]))
    elif spec.placement == "shuffled":
        order = np.random.default_rng(spec.seed).permutation(len(healthy))
        healthy = [healthy[int(i)] for i in order]
    if spec.ranks is not None:
        if spec.ranks < 1:
            raise WorkloadError("a collective needs at least one rank")
        if spec.ranks > len(healthy):
            raise WorkloadError(
                f"spec asks for {spec.ranks} ranks but only "
                f"{len(healthy)} tiles are healthy"
            )
        healthy = healthy[: spec.ranks]
    if not healthy:
        raise WorkloadError("no healthy tiles to place the collective on")
    return healthy


def build_program(spec: CollectiveSpec, ranks: int) -> CollectiveProgram:
    """Instantiate the spec's pattern for ``ranks`` participants.

    Geometry-dependent knobs are clamped to the participant count
    (segments, stages, root), so one spec fuzzes cleanly across fault
    maps of different severity; the clamped values are recorded in
    ``program.params`` for the oracles.
    """
    if spec.pattern == "ring-all-reduce":
        program = ring_all_reduce(
            ranks,
            segments=max(1, min(spec.segments, ranks)),
            seed=spec.seed,
        )
    elif spec.pattern == "rd-all-reduce":
        program = recursive_doubling_all_reduce(ranks, seed=spec.seed)
    elif spec.pattern == "all-to-all":
        program = all_to_all(ranks, seed=spec.seed)
    elif spec.pattern == "broadcast":
        program = broadcast(ranks, root=spec.root % ranks, seed=spec.seed)
    elif spec.pattern == "reduce":
        program = tree_reduce(ranks, root=spec.root % ranks, seed=spec.seed)
    elif spec.pattern == "pipeline":
        program = pipeline(
            ranks,
            stages=max(1, min(spec.stages, ranks)),
            microbatches=max(1, spec.microbatches),
            seed=spec.seed,
        )
    else:
        raise WorkloadError(
            f"unknown collective pattern {spec.pattern!r}; "
            f"pick one of {PATTERNS}"
        )
    program.validate()
    return program


# ---------------------------------------------------------------------------
# NoC backend: packet-schedule compilation + delivery oracle
# ---------------------------------------------------------------------------


@dataclass
class NocCollective:
    """A compiled collective: injection schedule plus its delivery oracle."""

    config: SystemConfig
    fault_map: FaultMap
    spec: CollectiveSpec
    program: CollectiveProgram
    trace: ProgramTrace
    rank_coords: list[Coord]
    #: Injection entries ``(cycle, src, dst, address, payload, network)``;
    #: packets are materialised fresh per run (they are mutable).
    entries: list[tuple[int, Coord, Coord, int, int, NetworkId]]
    #: Expected delivery payloads per ``(phase, src, dst)`` flow.
    expected: dict[tuple[int, Coord, Coord], list[int]]
    phase_gap: int
    detoured_transfers: int

    @property
    def packets(self) -> int:
        """Packets the schedule injects (detours count both legs)."""
        return len(self.entries)

    @property
    def last_cycle(self) -> int:
        """Cycle of the final injection (-1 for an empty schedule)."""
        return self.entries[-1][0] if self.entries else -1

    @property
    def useful_words(self) -> int:
        """Payload words of the logical collective (2 words per transfer)."""
        return 2 * self.program.transfer_count

    def packet_schedule(self) -> list[tuple[int, Packet, NetworkId]]:
        """Fresh ``(cycle, packet, network)`` triples, sorted by cycle.

        RESPONSE-kind packets carry the data: responses are one-way on
        this fabric, so the schedule never spawns echo traffic that
        would pollute the delivery oracle.
        """
        return [
            (
                cycle,
                Packet(
                    kind=PacketKind.RESPONSE,
                    src=src,
                    dst=dst,
                    address=address,
                    payload=payload,
                ),
                network,
            )
            for cycle, src, dst, address, payload, network in self.entries
        ]


def compile_noc(
    config: SystemConfig,
    fault_map: FaultMap | None,
    spec: CollectiveSpec,
    *,
    phase_gap: int | None = None,
    rank_coords: list[Coord] | None = None,
    program: CollectiveProgram | None = None,
) -> NocCollective:
    """Compile a collective spec into a fault-aware NoC packet schedule.

    A **fresh** :class:`KernelRouter` makes the schedule a pure function
    of ``(config, fault_map, spec)`` — the router's load balancing is
    stateful, so reusing one across compiles would leak assignment
    history between runs.  Pairs with no clear DoR path route via the
    kernel's two-leg detour (both legs become scheduled packets); fully
    unreachable pairs raise :class:`NetworkError` at compile time.

    ``rank_coords`` pins the participant tiles explicitly (they must be
    healthy under ``fault_map``) — fault-degradation sweeps use this to
    hold the logical workload constant while the map degrades.

    ``program`` bypasses :func:`build_program` with a prebuilt phase
    program (e.g. a lowered :class:`~repro.workloads.dataflow.DataflowGraph`);
    the spec then only contributes rank placement.
    """
    fmap = fault_map or FaultMap(config)
    placement_spec = spec
    if program is not None and spec.ranks is None:
        placement_spec = replace(spec, ranks=program.ranks)
    coords = (
        rank_coords
        if rank_coords is not None
        else select_ranks(fmap, placement_spec)
    )
    for coord in coords:
        if fmap.is_faulty(coord):
            raise WorkloadError(f"pinned rank tile {coord} is faulty")
    if len(set(coords)) != len(coords):
        raise WorkloadError("rank tiles must be distinct")
    if program is None:
        program = build_program(spec, len(coords))
    elif program.ranks != len(coords):
        raise WorkloadError(
            f"program spans {program.ranks} ranks but "
            f"{len(coords)} tiles were selected"
        )
    if len(program.phases) >= (1 << ADDRESS_BITS):
        raise WorkloadError(
            f"{len(program.phases)} phases exceed the "
            f"{ADDRESS_BITS}-bit packet address space"
        )
    trace = execute_program(program)
    gap = phase_gap if phase_gap is not None else config.rows + config.cols + 8
    if gap < 1:
        raise WorkloadError("phase_gap must be >= 1")

    router = KernelRouter(fmap)
    entries: list[tuple[int, Coord, Coord, int, int, NetworkId]] = []
    expected: dict[tuple[int, Coord, Coord], list[int]] = {}
    detoured = 0
    for p, (phase, values) in enumerate(zip(program.phases, trace.phase_values)):
        base = p * gap
        for t, value in zip(phase, values):
            src_c, dst_c = coords[t.src], coords[t.dst]
            assignment = router.assign(src_c, dst_c, allow_detour=True)
            if assignment.network is not None:
                legs = [(base, src_c, dst_c, assignment.network)]
            elif assignment.is_detour:
                via = assignment.detour_via
                assert via is not None
                detoured += 1
                first = router.assign(src_c, via, allow_detour=False)
                second = router.assign(via, dst_c, allow_detour=False)
                if first.network is None or second.network is None:
                    raise NetworkError(
                        f"detour via {via} lost a leg for {src_c} -> {dst_c}"
                    )
                legs = [
                    (base, src_c, via, first.network),
                    (base + 1, via, dst_c, second.network),
                ]
            else:
                raise NetworkError(
                    f"collective pair {src_c} -> {dst_c} is unreachable "
                    f"under {fmap.fault_count} faults"
                )
            for cycle, leg_src, leg_dst, network in legs:
                entries.append((cycle, leg_src, leg_dst, p, value, network))
                expected.setdefault((p, leg_src, leg_dst), []).append(value)
    entries.sort(key=lambda e: e[0])
    return NocCollective(
        config=config,
        fault_map=fmap,
        spec=spec,
        program=program,
        trace=trace,
        rank_coords=coords,
        entries=entries,
        expected=expected,
        phase_gap=gap,
        detoured_transfers=detoured,
    )


def check_delivery(
    collective: NocCollective,
    delivered_packets: Iterable[Packet],
    *,
    engine: str = "?",
) -> int:
    """Completion oracle over one run's delivered packets; returns checks.

    Two layers, both raising a structured ``InvariantViolation``:

    1. **flow multisets** — every ``(phase, src, dst)`` flow must have
       delivered exactly its expected payload multiset (no missing, no
       extra, no corrupted packets);
    2. **final states** — the deliveries are replayed through the phase
       program (using the *delivered* value wherever the flow pins it
       uniquely) and every rank's final slot values must equal the
       program's finals — the "every live tile ends with the correct
       reduced value" guarantee, from simulated traffic alone.
    """
    got: dict[tuple[int, Coord, Coord], list[int]] = {}
    for packet in delivered_packets:
        got.setdefault((packet.address, packet.src, packet.dst), []).append(
            packet.payload
        )

    checks = 0
    for key, want in collective.expected.items():
        have = got.get(key, [])
        checks += 1
        if sorted(have) != sorted(want):
            phase, src, dst = key
            _violation(
                "delivery_oracle",
                "flow payload multiset diverged from the program",
                {
                    "engine": engine,
                    "pattern": collective.program.name,
                    "phase": phase,
                    "src": src,
                    "dst": dst,
                    "expected": sorted(want),
                    "delivered": sorted(have),
                },
            )
    extras = [key for key in got if key not in collective.expected]
    checks += 1
    if extras:
        _violation(
            "delivery_oracle",
            "packets delivered outside the compiled schedule",
            {"engine": engine, "flows": extras[:8]},
        )

    # Replay the program from the delivered data: flows that pin a
    # transfer uniquely contribute the wire value; shared flows (detour
    # legs aliasing a direct pair) already passed multiset equality.
    state: dict[int, dict[int, int]] = {
        r: dict(collective.program.init.get(r, {}))
        for r in range(collective.program.ranks)
    }
    coords = collective.rank_coords
    for p, (phase, values) in enumerate(
        zip(collective.program.phases, collective.trace.phase_values)
    ):
        reads: list[int] = []
        for t, compiled_value in zip(phase, values):
            key = (p, coords[t.src], coords[t.dst])
            wire = got.get(key, [])
            reads.append(wire[0] if len(wire) == 1 else compiled_value)
        for t, value in zip(phase, reads):
            slot = state[t.dst]
            if t.op == "sum":
                slot[t.dst_slot] = (slot.get(t.dst_slot, 0) + value) & MASK64
            else:
                slot[t.dst_slot] = value
    for rank, slots in collective.trace.finals.items():
        for slot_id, want_value in slots.items():
            checks += 1
            have_value = state[rank].get(slot_id, 0)
            if have_value != want_value:
                _violation(
                    "completion_oracle",
                    "tile ended with a wrong reduced value",
                    {
                        "engine": engine,
                        "pattern": collective.program.name,
                        "rank": rank,
                        "tile": coords[rank],
                        "slot": slot_id,
                        "expected": want_value,
                        "got": have_value,
                    },
                )
    return checks


def run_noc_collective(
    collective: NocCollective,
    *,
    engine: str = "reference",
    checkers=None,
    max_cycles: int = 200_000,
):
    """Drive a compiled collective through one NoC engine and verify it.

    Returns ``(report, oracle_checks)``; the oracle runs on the
    engine's delivered packets, so a simulator that corrupted, dropped
    or duplicated payloads fails here even when its aggregate report
    looks plausible.
    """
    from ..noc.simulator import NocSimulator

    sim = NocSimulator(
        collective.config,
        collective.fault_map,
        engine=engine,
        checkers=checkers,
    )
    # Each injection cycle's packets are offered at that cycle, as a
    # per-cycle loop would; ``run`` skips or fast-forwards in between.
    for cycle, group in itertools.groupby(
        collective.packet_schedule(), key=lambda entry: entry[0]
    ):
        sim.run(cycle - sim.cycle)
        for _, packet, network in group:
            sim.inject(packet, network)
    sim.run(collective.last_cycle + 1 - sim.cycle)
    sim.drain(max_cycles=max_cycles)
    checks = check_delivery(collective, sim.delivered_packets, engine=engine)
    return sim.report(), checks


# ---------------------------------------------------------------------------
# emulator backend (FrontierWave-style driver)
# ---------------------------------------------------------------------------


class CollectiveDriver:
    """Run a collective on the task-level emulator, one phase per superstep.

    Unlike the NoC compilation — where payloads are precomputed and the
    simulator is judged on faithful delivery — this driver computes the
    reduction *live*: each tile merges its inbox into local slot state,
    then emits the current phase's transfers from that merged state.
    The emulator's delivery barrier is exactly a phase barrier, so the
    per-tile finals are simulation-produced and :meth:`verify` compares
    them against the program's executable semantics.
    """

    def __init__(
        self,
        system,
        spec: CollectiveSpec,
        *,
        program: CollectiveProgram | None = None,
    ):
        self.system = system
        self.spec = spec
        placement_spec = spec
        if program is not None and spec.ranks is None:
            placement_spec = replace(spec, ranks=program.ranks)
        self.rank_coords = select_ranks(system.fault_map, placement_spec)
        if program is None:
            program = build_program(spec, len(self.rank_coords))
        elif program.ranks != len(self.rank_coords):
            raise WorkloadError(
                f"program spans {program.ranks} ranks but "
                f"{len(self.rank_coords)} tiles were selected"
            )
        self.program = program
        self.trace = execute_program(self.program)
        self._rank_of = {coord: r for r, coord in enumerate(self.rank_coords)}
        # Per-phase transfers grouped by source rank, in program order.
        self._by_src: list[dict[int, list[Transfer]]] = []
        for phase in self.program.phases:
            grouped: dict[int, list[Transfer]] = {}
            for t in phase:
                grouped.setdefault(t.src, []).append(t)
            self._by_src.append(grouped)
        self.state: dict[int, dict[int, int]] = {}
        self.reset()

    def reset(self) -> None:
        """Restore every rank's slots to the program's initial values."""
        self.state = {
            r: dict(self.program.init.get(r, {}))
            for r in range(self.program.ranks)
        }

    def compute(self, tile: Coord, inbox, em) -> int:
        """One tile's superstep: merge inbox, then send the next phase."""
        rank = self._rank_of.get(tile)
        if rank is None:
            return 0
        slots = self.state[rank]
        for message in inbox:
            dst_slot, op, value = message.payload
            if op == "sum":
                slots[dst_slot] = (slots.get(dst_slot, 0) + value) & MASK64
            else:
                slots[dst_slot] = value
        phase_index = em.stats.supersteps
        sends = 0
        if phase_index < len(self._by_src):
            for t in self._by_src[phase_index].get(rank, ()):
                em.send(
                    tile,
                    self.rank_coords[t.dst],
                    payload=(t.dst_slot, t.op, slots.get(t.src_slot, 0)),
                )
                sends += 1
        return len(inbox) + sends

    def run(self, engine: str | None = None, max_supersteps: int = 10_000):
        """Run to quiescence on a fresh emulator; verify; return stats."""
        from ..arch.emulator import Emulator

        self.reset()
        emulator = Emulator(self.system, engine=engine)
        # Only ranks send a phase; every other tile computes nothing.
        stats = emulator.run(
            self.compute, max_supersteps=max_supersteps, active=self.rank_coords
        )
        self.verify()
        return stats

    def verify(self) -> int:
        """Check every participant tile's final slots; returns checks."""
        checks = 0
        for rank in range(self.program.ranks):
            want = self.trace.finals[rank]
            have = self.state[rank]
            for slot_id, want_value in want.items():
                checks += 1
                if have.get(slot_id, 0) != want_value:
                    _violation(
                        "completion_oracle",
                        "emulated tile ended with a wrong reduced value",
                        {
                            "pattern": self.program.name,
                            "rank": rank,
                            "tile": self.rank_coords[rank],
                            "slot": slot_id,
                            "expected": want_value,
                            "got": have.get(slot_id, 0),
                        },
                    )
        return checks


# ---------------------------------------------------------------------------
# fault-degradation sweeps (achieved bandwidth vs fault count vs placement)
# ---------------------------------------------------------------------------


def achieved_bandwidth(collective: NocCollective, report) -> float:
    """Useful payload words per cycle for one completed run."""
    if report.cycles == 0:
        return 0.0
    return collective.useful_words / report.cycles


def fault_sweep(
    config: SystemConfig,
    spec: CollectiveSpec,
    fault_counts: list[int],
    *,
    seed: int = 0,
    engine: str = "vector",
    phase_gap: int | None = None,
) -> list[dict[str, Any]]:
    """Run one collective over a *nested* sequence of fault maps.

    Fault maps grow by inclusion (each count adds tiles to the previous
    map) and the participant set is pinned to tiles healthy under the
    **largest** map, so the logical collective is identical at every
    point and the only variable is routing damage.  That is what makes
    achieved bandwidth monotonically non-increasing in the fault count —
    the property the seeded regression test pins.
    """
    counts = sorted(set(int(c) for c in fault_counts))
    if not counts:
        raise WorkloadError("fault_counts must not be empty")
    if counts[0] < 0:
        raise WorkloadError("fault counts must be non-negative")
    worst = random_fault_map(config, counts[-1], rng=seed)
    order = sorted(worst.faulty)
    pinned_spec = spec
    if spec.ranks is None:
        pinned_spec = replace(spec, ranks=worst.healthy_count)
    coords = select_ranks(worst, pinned_spec)

    points: list[dict[str, Any]] = []
    for count in counts:
        fmap = FaultMap(config, frozenset(order[:count]))
        entry: dict[str, Any] = {"faults": count}
        try:
            coll = compile_noc(
                config,
                fmap,
                pinned_spec,
                rank_coords=coords,
                phase_gap=phase_gap,
            )
            report, checks = run_noc_collective(coll, engine=engine)
        except NetworkError as err:
            entry.update(ok=False, error=str(err))
        else:
            entry.update(
                ok=True,
                cycles=report.cycles,
                delivered=report.delivered,
                packets=coll.packets,
                detoured_transfers=coll.detoured_transfers,
                bandwidth_words_per_cycle=achieved_bandwidth(coll, report),
                oracle_checks=checks,
            )
        points.append(entry)
    return points


def _sweep_trial(ctx) -> list[dict[str, Any]]:
    """One engine trial of :func:`collective_fault_sweep` (picklable)."""
    params = ctx.params
    config = SystemConfig(rows=params["rows"], cols=params["cols"])
    spec = CollectiveSpec(
        pattern=params["pattern"],
        seed=params["spec_seed"],
        ranks=params["ranks"],
        segments=params["segments"],
        root=params["root"],
        stages=params["stages"],
        microbatches=params["microbatches"],
        placement=params["placement"],
    )
    return fault_sweep(
        config,
        spec,
        list(params["fault_counts"]),
        seed=int(ctx.rng.integers(0, 2**31)),
        engine=params["engine"],
        phase_gap=params.get("phase_gap"),
    )


def collective_fault_sweep(
    config: SystemConfig,
    spec: CollectiveSpec,
    fault_counts: list[int],
    *,
    trials: int = 5,
    seed: int = 0,
    engine: str = "vector",
    workers: int = 1,
    cache: Any = None,
    phase_gap: int | None = None,
) -> dict[str, Any]:
    """Figure-style sweep: achieved bandwidth vs fault count, many maps.

    Each trial draws its own nested fault-map sequence from the engine's
    per-trial seed stream and runs :func:`fault_sweep`; the summary
    aggregates mean bandwidth/cycles per fault count over the trials
    that stayed routable.
    """
    from ..engine.core import ExperimentEngine

    with ExperimentEngine(workers=workers, cache=cache) as executor:
        result = executor.run(
            _sweep_trial,
            experiment=f"collective.sweep.{spec.pattern}",
            trials=trials,
            seed=seed,
            params={
                "rows": config.rows,
                "cols": config.cols,
                "pattern": spec.pattern,
                "spec_seed": spec.seed,
                "ranks": spec.ranks,
                "segments": spec.segments,
                "root": spec.root,
                "stages": spec.stages,
                "microbatches": spec.microbatches,
                "placement": spec.placement,
                "fault_counts": tuple(sorted(set(int(c) for c in fault_counts))),
                "engine": engine,
                "phase_gap": phase_gap,
            },
        )
    counts = sorted(set(int(c) for c in fault_counts))
    summary = []
    for i, count in enumerate(counts):
        oks = [t[i] for t in result.values if t[i]["ok"]]
        summary.append(
            {
                "faults": count,
                "trials_ok": len(oks),
                "mean_bandwidth_words_per_cycle": (
                    sum(p["bandwidth_words_per_cycle"] for p in oks) / len(oks)
                    if oks
                    else 0.0
                ),
                "mean_cycles": (
                    sum(p["cycles"] for p in oks) / len(oks) if oks else 0.0
                ),
                "mean_detoured_transfers": (
                    sum(p["detoured_transfers"] for p in oks) / len(oks)
                    if oks
                    else 0.0
                ),
            }
        )
    return {
        "pattern": spec.pattern,
        "placement": spec.placement,
        "trials": trials,
        "engine": engine,
        "points": summary,
        "per_trial": result.values,
    }
