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
  once: the fault map's shared route table
  (:class:`~repro.noc.connectivity._RouteTable`) holds the direct
  round-trip-reachability matrix (derived from the Fig. 6 blockage
  cumulative-sum tables), non-detour hop counts are the closed-form
  Manhattan distance, and the rare blocked pairs read the table's
  detour search — the same one ``KernelRouter.find_detour`` reads, so
  both engines pick the same via tile;
* latency and counters come from array reductions — all integer ops
  (``np.add.reduceat`` word sums, masked max), so every
  :class:`~repro.arch.emulator.EmulationStats` field is bit-identical
  to the reference engine, not merely close.

Message *delivery* (appending to per-tile inboxes) stays a Python loop
over the permutation that sorts messages into flow order: inbox content
feeds back into workload compute, so ordering must match the reference
engine message for message.

One observable difference from the reference engine: an unreachable
flow raises :class:`~repro.errors.NetworkError` *before* any message of
the superstep is delivered or accounted, where the reference engine
raises mid-loop with earlier flows already delivered.  Stats after a
raised superstep are unspecified on both engines; converged runs are
identical.
"""

from __future__ import annotations

import numpy as np

from ..config import Coord
from ..errors import EmulatorError, NetworkError
from ..noc.connectivity import _RouteTable, _shared_table
from ..obs.telemetry import Telemetry
from .emulator import Emulator, Message, message_words
from .system import (
    DETOUR_SOFTWARE_PENALTY,
    HOP_LATENCY,
    NETWORK_BASE,
    SERVICE_LATENCY,
    WaferscaleSystem,
)


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
        "perm", "src", "dst", "counts", "words",
        "hops", "detour", "selfflow", "cycles",
    )


def _flow_kernel(
    src: np.ndarray,
    dst: np.ndarray,
    words: np.ndarray,
    table: _RouteTable,
) -> _Flows:
    """Aggregate queued messages into flows and route them all at once.

    ``src``/``dst``/``words`` are int64 arrays over messages in send
    order; ``table`` is the fault map's shared route table.  Raises
    :class:`NetworkError` for the first unreachable flow (in
    first-occurrence order) before anything is accounted.
    """
    n = table.n
    cols = table.cols
    keys = src * n + dst
    uniq, first_idx, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    nflows = len(uniq)
    fsrc = uniq // n
    fdst = uniq % n
    selfflow = fsrc == fdst
    direct = table.direct_flat[uniq]

    hops = np.abs(fsrc // cols - fdst // cols) + np.abs(fsrc % cols - fdst % cols)
    det_flag = np.zeros(nflows, dtype=bool)
    blocked = np.nonzero(~direct & ~selfflow)[0]
    if blocked.size:
        unreachable: list[int] = []
        for j in blocked.tolist():
            via, det_hops = table.detour(int(uniq[j]))
            if via is not None:
                hops[j] = det_hops
                det_flag[j] = True
            else:
                unreachable.append(j)
        if unreachable:
            j = min(unreachable, key=lambda jj: first_idx[jj])
            s = (int(fsrc[j]) // cols, int(fsrc[j]) % cols)
            d = (int(fdst[j]) // cols, int(fdst[j]) % cols)
            raise NetworkError(f"no path for messages {s} -> {d}")

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
        # The validated word count, as the scalar engine queued it.
        self._sc_words.append(self._outbox[-1].words)

    def send_batch(
        self,
        src: Coord,
        dsts,
        payload: object = None,
        words: int = 2,
    ) -> None:
        if src not in self._healthy:
            raise EmulatorError(f"source tile {src} is faulty or absent")
        words = message_words(words)
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
        fl = _flow_kernel(src, dst, words, self._table)
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
            inbox = inboxes.setdefault(coord_of[dst_of_flow[j]], [])
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

