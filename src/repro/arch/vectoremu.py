"""Struct-of-arrays whole-wafer emulator engine (``engine="vector"``).

The scalar emulator (``engine="reference"``, also run for ``"fast"``)
walks the delivery barrier flow by flow in Python: a dict groups the outbox into (src, dst) flows, and each flow
pays a route lookup, an integer cost expression, and a handful of stat
increments.  On a full-wafer frontier (a BFS wave touching most of the
2048-chiplet array) that loop is the dominant cost of a superstep.

:class:`VectorEmulator` replaces the loop with whole-array numpy:

* queued messages are kept as flat arrays (source id, destination id,
  word count) alongside the :class:`~repro.arch.emulator.Message`
  objects, so the barrier starts from struct-of-arrays state;
* one ``np.unique`` over composite ``src * n + dst`` keys aggregates
  messages into flows — ``return_index`` recovers the reference
  engine's first-occurrence flow order, ``return_inverse`` +
  ``return_counts`` give the per-flow membership;
* hops, detour flags, and reachability are resolved for *all* flows at
  once: a per-fault-map :class:`_RouteTable` holds the direct
  round-trip-reachability matrix (derived from the Fig. 6 blockage
  cumulative-sum tables), non-detour hop counts are the closed-form
  Manhattan distance, and the rare blocked pairs fall back to a
  vectorized detour search that replicates ``KernelRouter.find_detour``
  exactly (minimal two-leg Manhattan cost, earliest row-major
  candidate on ties);
* latency and counters come from array reductions — all integer ops
  (``np.add.reduceat`` word sums, masked max), so every
  :class:`~repro.arch.emulator.EmulationStats` field is bit-identical
  to the reference engine, not merely close.

Message *delivery* (appending to per-tile inboxes) stays a Python loop
over the permutation that sorts messages into flow order: inbox content
feeds back into workload compute, so ordering must match the reference
engine message for message.

On top of the single-trial engine, :func:`emulate_batch` advances N
independent systems (N fault maps x N seed streams) through one kernel
per superstep — composite keys gain a trial component, per-trial stats
come from segmented reductions (``np.add.at`` / ``np.maximum.at``) and
are bit-identical to N individual runs, mirroring
:func:`repro.noc.vectorsim.simulate_batch`.

One observable difference from the reference engine: an unreachable
flow raises :class:`~repro.errors.NetworkError` *before* any message of
the superstep is delivered or accounted, where the reference engine
raises mid-loop with earlier flows already delivered.  Stats after a
raised superstep are unspecified on both engines; converged runs are
identical.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Sequence

import numpy as np

from ..config import Coord
from ..errors import EmulatorError, NetworkError
from ..noc.connectivity import _blockage_matrix
from ..noc.faults import FaultMap
from ..obs.telemetry import Telemetry
from .emulator import EmulationStats, Emulator, Message
from .system import (
    DETOUR_SOFTWARE_PENALTY,
    HOP_LATENCY,
    NETWORK_BASE,
    SERVICE_LATENCY,
    WaferscaleSystem,
)


class _RouteTable:
    """Vectorized per-fault-map route state.

    ``direct[s, d]`` is True when the (s, d) round trip succeeds on at
    least one network without a detour: XY-L clearness of ``s -> d`` or
    of ``d -> s`` (request and response of the two networks traverse the
    same two Ls, so round-trip reachability collapses to the symmetric
    ``~(xy_blocked & xy_blocked.T)`` of the Fig. 6 blockage matrix).
    Detours are derived lazily per blocked pair and memoised: a flow's
    hop count, detour flag and reachability are a pure function of the
    fault map (the kernel's network choice balances load but never
    changes the DoR hop count, which is the Manhattan distance).
    """

    def __init__(self, fault_map: FaultMap) -> None:
        config = fault_map.config
        self.rows = config.rows
        self.cols = config.cols
        self.n = config.rows * config.cols
        xy_blocked, healthy = _blockage_matrix(fault_map)
        self.healthy = healthy
        self.direct = ~(xy_blocked & xy_blocked.T)
        self.direct_flat = np.ascontiguousarray(self.direct).reshape(-1)
        ids = np.arange(self.n, dtype=np.int64)
        self._r = ids // self.cols
        self._c = ids % self.cols
        #: pair key (src * n + dst) -> (detour hops, reachable)
        self._detours: dict[int, tuple[int, bool]] = {}

    def detour(self, key: int) -> tuple[int, bool]:
        """Two-leg hop count and reachability for a blocked pair."""
        hit = self._detours.get(key)
        if hit is None:
            hit = self._detours[key] = self._find_detour(key)
        return hit

    def _find_detour(self, key: int) -> tuple[int, bool]:
        # Replicates KernelRouter.find_detour: candidates are healthy
        # tiles (excluding the endpoints) reachable from src and able to
        # reach dst; pick the minimal src->via->dst Manhattan cost, and
        # on ties the earliest row-major candidate (np.argmin's
        # first-occurrence rule over the row-major id axis).
        src, dst = divmod(key, self.n)
        ok = self.healthy & self.direct[src] & self.direct[:, dst]
        ok[src] = False
        ok[dst] = False
        if not ok.any():
            return 0, False
        r, c = self._r, self._c
        cost = (
            np.abs(r - r[src]) + np.abs(c - c[src])
            + np.abs(r[dst] - r) + np.abs(c[dst] - c)
        )
        cost = np.where(ok, cost, np.iinfo(np.int64).max)
        via = int(np.argmin(cost))
        return int(cost[via]), True


# Shared per-fault-map tables, LRU-bounded; emptied by
# arch.emulator.clear_route_cache.
_TABLE_CACHE: OrderedDict[FaultMap, _RouteTable] = OrderedDict()
_TABLE_CACHE_MAPS = 8


def _shared_table(fault_map: FaultMap) -> _RouteTable:
    """The shared vector route table for ``fault_map``."""
    table = _TABLE_CACHE.get(fault_map)
    if table is None:
        table = _TABLE_CACHE[fault_map] = _RouteTable(fault_map)
        while len(_TABLE_CACHE) > _TABLE_CACHE_MAPS:
            _TABLE_CACHE.popitem(last=False)
    else:
        _TABLE_CACHE.move_to_end(fault_map)
    return table


class _BatchSend:
    """A deferred ``send_batch`` segment: one source, many destinations."""

    __slots__ = ("src_id", "dst_ids", "payload", "words")

    def __init__(
        self, src_id: int, dst_ids: np.ndarray, payload: object, words: int
    ) -> None:
        self.src_id = src_id
        self.dst_ids = dst_ids
        self.payload = payload
        self.words = words


class _Flows:
    """Per-flow arrays of one delivery barrier, in first-occurrence order."""

    __slots__ = (
        "perm", "trial", "src", "dst", "counts", "words",
        "hops", "detour", "selfflow", "cycles",
    )


def _flow_kernel(
    src: np.ndarray,
    dst: np.ndarray,
    words: np.ndarray,
    trial: np.ndarray | None,
    tables: Sequence[_RouteTable],
    trial_note: Callable[[int], str] | None = None,
) -> _Flows:
    """Aggregate queued messages into flows and route them all at once.

    ``src``/``dst``/``words`` are int64 arrays over messages in send
    order; ``trial`` (or None for a single emulation) maps each message
    to its index in ``tables``.  Raises :class:`NetworkError` for the
    first unreachable flow (in first-occurrence order) before anything
    is accounted.
    """
    table0 = tables[0]
    n = table0.n
    cols = table0.cols
    if trial is None:
        keys = src * n + dst
    else:
        keys = (trial * n + src) * n + dst
    uniq, first_idx, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    nflows = len(uniq)
    if trial is None:
        ftrial = np.zeros(nflows, dtype=np.int64)
        rem = uniq
    else:
        ftrial = uniq // (n * n)
        rem = uniq % (n * n)
    fsrc = rem // n
    fdst = rem % n
    selfflow = fsrc == fdst

    # Direct reachability: one gather per trial present (flows are
    # key-sorted, so each trial's flows are a contiguous slice).
    direct = np.empty(nflows, dtype=bool)
    if trial is None:
        direct[:] = table0.direct_flat[rem]
    else:
        bounds = np.searchsorted(ftrial, np.arange(len(tables) + 1))
        for b, table in enumerate(tables):
            lo, hi = bounds[b], bounds[b + 1]
            if lo < hi:
                direct[lo:hi] = table.direct_flat[rem[lo:hi]]

    hops = np.abs(fsrc // cols - fdst // cols) + np.abs(fsrc % cols - fdst % cols)
    det_flag = np.zeros(nflows, dtype=bool)
    blocked = np.nonzero(~direct & ~selfflow)[0]
    if blocked.size:
        unreachable: list[int] = []
        for j in blocked.tolist():
            det_hops, ok = tables[int(ftrial[j])].detour(int(rem[j]))
            if ok:
                hops[j] = det_hops
                det_flag[j] = True
            else:
                unreachable.append(j)
        if unreachable:
            j = min(unreachable, key=lambda jj: first_idx[jj])
            s = (int(fsrc[j]) // cols, int(fsrc[j]) % cols)
            d = (int(fdst[j]) // cols, int(fdst[j]) % cols)
            note = trial_note(int(ftrial[j])) if trial_note is not None else ""
            raise NetworkError(f"no path for messages {s} -> {d}{note}")

    # First-occurrence flow order (the reference engine's dict insertion
    # order), then the message permutation grouping messages by flow —
    # stable, so within-flow send order is preserved.
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(nflows, dtype=np.int64)
    rank[order] = np.arange(nflows, dtype=np.int64)
    perm = np.argsort(rank[inverse], kind="stable")

    counts_o = counts[order]
    starts = np.zeros(nflows, dtype=np.int64)
    np.cumsum(counts_o[:-1], out=starts[1:])
    words_o = np.add.reduceat(words[perm], starts)
    hops_o = hops[order]
    det_o = det_flag[order]

    fl = _Flows()
    fl.perm = perm
    fl.trial = ftrial[order]
    fl.src = fsrc[order]
    fl.dst = fdst[order]
    fl.counts = counts_o
    fl.words = words_o
    fl.hops = hops_o
    fl.detour = det_o
    fl.selfflow = selfflow[order]
    fl.cycles = (
        NETWORK_BASE
        + SERVICE_LATENCY
        + hops_o * HOP_LATENCY
        + words_o
        + DETOUR_SOFTWARE_PENALTY * det_o * counts_o
    )
    return fl


class VectorEmulator(Emulator):
    """Whole-wafer struct-of-arrays emulator (``Emulator(engine="vector")``).

    Drop-in for the scalar engine: identical ``EmulationStats``
    (bit-for-bit), identical inbox ordering, identical telemetry
    counters, identical error messages for unreachable flows.  Adds a
    vectorized :meth:`send_batch` so frontier workloads can queue a
    whole wave of messages without per-message Python overhead.
    """

    def __init__(
        self,
        system: WaferscaleSystem,
        telemetry: Telemetry | None = None,
        engine: str | None = None,
        checkers=None,
    ):
        super().__init__(
            system,
            telemetry=telemetry,
            engine="vector" if engine is None else engine,
            checkers=checkers,
        )
        if self.engine != "vector":
            raise EmulatorError(
                f"VectorEmulator is the engine='vector' implementation; "
                f"got engine={self.engine!r}"
            )
        self._table = _shared_table(system.fault_map)
        self._cols = system.config.cols
        self._coord_of: list[Coord] = list(system.config.tile_coords())
        # Scalar sends mirror (src id, dst id, words) into flat lists in
        # send order; send_batch appends a _BatchSend marker to the
        # outbox so global ordering is reconstructible at the barrier.
        self._sc_src: list[int] = []
        self._sc_dst: list[int] = []
        self._sc_words: list[int] = []

    # -- messaging ---------------------------------------------------------

    def send(self, src: Coord, dst: Coord, payload: object, words: int = 2) -> None:
        super().send(src, dst, payload, words=words)
        cols = self._cols
        self._sc_src.append(src[0] * cols + src[1])
        self._sc_dst.append(dst[0] * cols + dst[1])
        self._sc_words.append(words)

    def send_batch(
        self,
        src: Coord,
        dsts,
        payload: object = None,
        words: int = 2,
    ) -> None:
        if src not in self._inboxes:
            raise EmulatorError(f"source tile {src} is faulty or absent")
        if words < 1:
            raise EmulatorError("message must carry at least one word")
        cols = self._cols
        if isinstance(dsts, np.ndarray):
            dst_ids = dsts.astype(np.int64, copy=True).ravel()
        else:
            dst_ids = np.fromiter(
                (d[0] * cols + d[1] for d in dsts), dtype=np.int64
            )
        if dst_ids.size == 0:
            return
        oob = (dst_ids < 0) | (dst_ids >= self._table.n)
        if oob.any() or not self._table.healthy[dst_ids].all():
            for did in dst_ids.tolist():
                if did < 0 or did >= self._table.n or not self._table.healthy[did]:
                    bad = (did // cols, did % cols) if 0 <= did else did
                    raise EmulatorError(
                        f"destination tile {bad} is faulty or absent"
                    )
        sid = src[0] * cols + src[1]
        self._outbox.append(_BatchSend(sid, dst_ids, payload, words))

    def _collect_outbox(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[Message]]:
        """Flatten the outbox into (src, dst, words) arrays + messages.

        Materialises ``send_batch`` segments into Message objects here
        (global send order), and clears the queued state.
        """
        src_parts: list[np.ndarray] = []
        dst_parts: list[np.ndarray] = []
        words_parts: list[np.ndarray] = []
        msgs: list[Message] = []
        coord_of = self._coord_of
        sc_lo = 0
        sc_hi = 0

        def flush_scalars() -> None:
            nonlocal sc_lo
            if sc_hi > sc_lo:
                src_parts.append(
                    np.array(self._sc_src[sc_lo:sc_hi], dtype=np.int64)
                )
                dst_parts.append(
                    np.array(self._sc_dst[sc_lo:sc_hi], dtype=np.int64)
                )
                words_parts.append(
                    np.array(self._sc_words[sc_lo:sc_hi], dtype=np.int64)
                )
                sc_lo = sc_hi

        for entry in self._outbox:
            if type(entry) is _BatchSend:
                flush_scalars()
                k = entry.dst_ids.size
                src_parts.append(np.full(k, entry.src_id, dtype=np.int64))
                dst_parts.append(entry.dst_ids)
                words_parts.append(np.full(k, entry.words, dtype=np.int64))
                src_coord = coord_of[entry.src_id]
                msgs.extend(
                    Message(
                        src=src_coord,
                        dst=coord_of[did],
                        payload=entry.payload,
                        words=entry.words,
                    )
                    for did in entry.dst_ids.tolist()
                )
            else:
                sc_hi += 1
                msgs.append(entry)
        flush_scalars()

        self._outbox = []
        self._sc_src = []
        self._sc_dst = []
        self._sc_words = []
        if len(src_parts) == 1:
            return src_parts[0], dst_parts[0], words_parts[0], msgs
        return (
            np.concatenate(src_parts),
            np.concatenate(dst_parts),
            np.concatenate(words_parts),
            msgs,
        )

    # -- delivery barrier --------------------------------------------------

    def _deliver(self) -> int:
        if not self._outbox:
            return 0
        src, dst, words, msgs = self._collect_outbox()
        fl = _flow_kernel(src, dst, words, None, (self._table,))
        slowest = self._account(fl)
        inboxes = self._inboxes
        coord_of = self._coord_of
        dst_of_flow = fl.dst
        # Deliver in flow order (first occurrence), send order within a
        # flow — exactly the reference engine's sequence.  Resolve each
        # inbox once per flow, not once per message.
        pos = 0
        perm_list = fl.perm.tolist()
        for j, count in enumerate(fl.counts.tolist()):
            inbox = inboxes[coord_of[dst_of_flow[j]]]
            for i in perm_list[pos:pos + count]:
                inbox.append(msgs[i])
            pos += count
        return slowest

    def _account(self, fl: _Flows) -> int:
        """Fold one barrier's flow arrays into stats/telemetry; slowest."""
        nonself = ~fl.selfflow
        counts_ns = fl.counts[nonself]
        if counts_ns.size == 0:
            return 0
        sent = int(counts_ns.sum())
        hop_total = int((fl.hops[nonself] * counts_ns).sum())
        det_msgs = int(fl.counts[fl.detour].sum())
        slowest = int(fl.cycles[nonself].max())
        stats = self.stats
        stats.messages_sent += sent
        stats.message_hops += hop_total
        stats.detoured_messages += det_msgs
        if self._obs is not None:
            self._m_messages.inc(sent)
            if det_msgs:
                self._m_detoured.inc(det_msgs)
            hops_ns = fl.hops[nonself].tolist()
            for h, c in zip(hops_ns, counts_ns.tolist()):
                self._m_hops.observe(h, count=c)
            metrics = self.telemetry.metrics
            coord_of = self._coord_of
            for s, c in zip(fl.src[nonself].tolist(), counts_ns.tolist()):
                sc = coord_of[s]
                metrics.counter(
                    "emu.tile_messages", tile=f"{sc[0]},{sc[1]}"
                ).inc(c)
        if self._chk_route is not None:
            coord_of = self._coord_of
            routes = zip(
                fl.src[nonself].tolist(),
                fl.dst[nonself].tolist(),
                fl.hops[nonself].tolist(),
                fl.detour[nonself].tolist(),
            )
            for s, d, h, det in routes:
                cached = (h, bool(det), True)
                for fn in self._chk_route:
                    fn(self, coord_of[s], coord_of[d], cached)
        return slowest


# ---------------------------------------------------------------------------
# Batched trials: N systems through one kernel per superstep.
# ---------------------------------------------------------------------------


class BatchEmulator:
    """N independent emulations advanced through one vector kernel.

    All systems must share the array shape; fault maps (and therefore
    route tables) may differ per trial.  Per-trial stats are
    bit-identical to N individual ``engine="vector"`` runs: composite
    flow keys carry the trial index in their high bits, so flows never
    mix across trials, per-flow integer sums are unchanged, and the
    within-trial delivery order is preserved.  Batched runs do not wire
    telemetry or checkers (mirroring ``noc.vectorsim.simulate_batch``).
    """

    def __init__(self, systems: Sequence[WaferscaleSystem]) -> None:
        if not systems:
            raise EmulatorError("emulate_batch needs at least one system")
        shape = (systems[0].config.rows, systems[0].config.cols)
        for system in systems:
            if (system.config.rows, system.config.cols) != shape:
                raise EmulatorError(
                    "all systems in a batch must share the array shape; "
                    f"got {(system.config.rows, system.config.cols)} vs {shape}"
                )
        self.emulators = [
            VectorEmulator(system, telemetry=Telemetry.disabled())
            for system in systems
        ]
        self._n = shape[0] * shape[1]

    def run(
        self,
        computes: Sequence[Callable[[Coord, list[Message], Emulator], int]],
        max_supersteps: int = 10_000,
    ) -> list[EmulationStats]:
        """Run every trial to quiescence; per-trial stats, in order."""
        emulators = self.emulators
        if len(computes) != len(emulators):
            raise EmulatorError(
                f"got {len(computes)} compute callables for "
                f"{len(emulators)} systems"
            )
        active = [True] * len(emulators)
        for _ in range(max_supersteps):
            if not any(active):
                return [em.stats for em in emulators]
            self._superstep(computes, active)
        for b, still in enumerate(active):
            if still:
                raise EmulatorError(
                    f"workload did not converge in {max_supersteps} steps "
                    f"(batch trial {b})"
                )
        return [em.stats for em in emulators]

    def _superstep(
        self,
        computes: Sequence[Callable[[Coord, list[Message], Emulator], int]],
        active: list[bool],
    ) -> None:
        emulators = self.emulators
        # Compute phase, per trial (reference superstep semantics).
        busiest = [0] * len(emulators)
        any_messages = [False] * len(emulators)
        for b, em in enumerate(emulators):
            if not active[b]:
                continue
            inboxes = em._inboxes
            em._inboxes = {coord: [] for coord in inboxes}
            compute = computes[b]
            for coord, inbox in inboxes.items():
                cycles = compute(coord, inbox, em)
                if cycles < 0:
                    raise EmulatorError("compute cycles cannot be negative")
                busiest[b] = max(busiest[b], cycles)
                any_messages[b] = any_messages[b] or bool(inbox)

        # Delivery barrier: every active trial's outbox through one kernel.
        src_parts: list[np.ndarray] = []
        dst_parts: list[np.ndarray] = []
        words_parts: list[np.ndarray] = []
        trial_parts: list[np.ndarray] = []
        msgs_per_trial: dict[int, list[Message]] = {}
        for b, em in enumerate(emulators):
            if not active[b] or not em._outbox:
                continue
            src, dst, words, msgs = em._collect_outbox()
            src_parts.append(src)
            dst_parts.append(dst)
            words_parts.append(words)
            trial_parts.append(np.full(src.size, b, dtype=np.int64))
            msgs_per_trial[b] = msgs

        nb = len(emulators)
        sent = np.zeros(nb, dtype=np.int64)
        hop_total = np.zeros(nb, dtype=np.int64)
        det_msgs = np.zeros(nb, dtype=np.int64)
        slowest = np.zeros(nb, dtype=np.int64)
        if src_parts:
            fl = _flow_kernel(
                np.concatenate(src_parts),
                np.concatenate(dst_parts),
                np.concatenate(words_parts),
                np.concatenate(trial_parts),
                [em._table for em in emulators],
                trial_note=lambda b: f" (batch trial {b})",
            )
            nonself = ~fl.selfflow
            t_ns = fl.trial[nonself]
            c_ns = fl.counts[nonself]
            np.add.at(sent, t_ns, c_ns)
            np.add.at(hop_total, t_ns, fl.hops[nonself] * c_ns)
            np.add.at(det_msgs, fl.trial[fl.detour], fl.counts[fl.detour])
            np.maximum.at(slowest, t_ns, fl.cycles[nonself])
            # Delivery, flow-major: fl arrays are in global
            # first-occurrence order, which restricted to any one trial
            # is that trial's own first-occurrence order.
            flat_msgs: list[Message] = []
            offsets = np.zeros(nb, dtype=np.int64)
            for b in sorted(msgs_per_trial):
                offsets[b] = len(flat_msgs)
                flat_msgs.extend(msgs_per_trial[b])
            # perm indexes the concatenation order, which matches
            # flat_msgs because trials were concatenated in ascending b.
            pos = 0
            perm_list = fl.perm.tolist()
            for j, count in enumerate(fl.counts.tolist()):
                em = emulators[fl.trial[j]]
                inbox = em._inboxes[em._coord_of[fl.dst[j]]]
                for i in perm_list[pos:pos + count]:
                    inbox.append(flat_msgs[i])
                pos += count

        # Finalize per-trial stats and convergence, reference semantics.
        for b, em in enumerate(emulators):
            if not active[b]:
                continue
            stats = em.stats
            stats.messages_sent += int(sent[b])
            stats.message_hops += int(hop_total[b])
            stats.detoured_messages += int(det_msgs[b])
            network_cycles = int(slowest[b])
            stats.supersteps += 1
            stats.local_compute_cycles += busiest[b]
            stats.network_cycles += network_cycles
            stats.per_step_messages.append(int(sent[b]))
            progressed = (
                bool(network_cycles) or busiest[b] > 0 or any_messages[b]
            )
            if not progressed and not em._outbox and not any(
                em._inboxes.values()
            ):
                active[b] = False


def emulate_batch(
    systems: Sequence[WaferscaleSystem],
    computes: Sequence[Callable[[Coord, list[Message], Emulator], int]],
    *,
    init: Sequence[Callable[[Emulator], None] | None] | None = None,
    max_supersteps: int = 10_000,
) -> list[EmulationStats]:
    """Run N workloads over N systems through one vector kernel.

    ``systems[b]`` and ``computes[b]`` define trial ``b``; ``init[b]``
    (optional) performs the trial's seed sends before the first
    superstep — e.g. queueing the BFS root visit.  Returns per-trial
    :class:`EmulationStats`, bit-identical to running each trial through
    its own ``Emulator(engine="vector")``.
    """
    if len(computes) != len(systems):
        raise EmulatorError(
            f"got {len(computes)} compute callables for {len(systems)} systems"
        )
    batch = BatchEmulator(systems)
    if init is not None:
        if len(init) != len(systems):
            raise EmulatorError(
                f"got {len(init)} init callables for {len(systems)} systems"
            )
        for fn, em in zip(init, batch.emulators):
            if fn is not None:
                fn(em)
    return batch.run(list(computes), max_supersteps=max_supersteps)
