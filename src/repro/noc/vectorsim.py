"""Batched numpy engine for the cycle-level NoC simulator.

The reference engine (:mod:`.simulator`) arbitrates every router
object of both networks every cycle in Python, which tops out near 20
cycles/s at full-wafer (32x32 tiles = 2048 chiplets) saturation.  This
module computes the *same semantics* (bit-identical
:class:`~repro.noc.simulator.SimulationReport`s, enforced by the
differential suite and ``repro verify --suite noc``) as whole-array
numpy operations over struct-of-arrays state:

* **Packet pool** — packet identity lives in preallocated flat arrays
  (``p_dst`` plus a sidecar list of the real :class:`Packet` objects for
  delivery/telemetry), recycled through a free list.  The hot kernel
  never touches a Python object.
* **Ring-buffer FIFOs** — all queues of both networks are one
  ``(2 * tiles * 5, depth)`` int array plus flat ``head``/``len`` index
  arrays (virtual tile ``v = net * tiles + tile``, lane ``v * 5 +
  port``), so a single kernel invocation per cycle advances both
  networks at once.  The networks share no state, which is what makes
  the stacking legal.
* **Lane-major arbitration** — the kernel touches only *occupied*
  lanes: head-of-line destinations are gathered in one shot, output
  ports come from the int LUT as a numpy array (or, beyond
  :data:`LUT_MAX_TILES` tiles, from the vectorized
  :func:`~repro.noc.routing.dor_port_codes` arithmetic kernel — there
  is no scalar fallback here), and every output port's round-robin
  winner falls out of one in-place sort of composite integers
  ``(target_lane << 27) | (rr_key << 24) | lane_index`` — the first
  entry of each target group is the reference engine's scan winner,
  and the sort yields winners in ascending (network, tile, port)
  order, which is exactly the delivery order the reports require.
* **Credit-indexed injection** — pending injections are admitted
  straight from per-tile queues keyed by LOCAL-FIFO credit, so a
  saturated run checks only tiles *with free slots* instead of
  rescanning the whole backlog every cycle as the reference engine
  does at saturation.

Delivery order — and therefore the report's latency list — is identical
to the reference engine because winners are emitted in ascending
virtual-tile order (XY network first, then YX, each in ascending flat
tile order), each tile delivers at most one LOCAL packet per network
per cycle, and each downstream FIFO receives at most one push per cycle
(ports are unique per winner).

Injection admission, response generation, draining, reporting,
checkpointing and telemetry all come from the
:class:`~repro.noc.simulator.NocSimulator` base class; this module only
replaces how a cycle is computed.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from ..config import Coord, SystemConfig
from ..errors import NetworkError
from ..obs.telemetry import Telemetry
from .dualnetwork import NetworkId
from .faults import FaultMap
from . import packets as _packets
from .packets import Packet, PacketKind
from .routing import build_port_lut, dor_port_codes
from .simulator import NocSimulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..verify.invariants import InvariantChecker

#: Networks in engine index order; ``NetworkId.XY.value == 0`` so a
#: network's enum value doubles as its index into the per-net arrays.
NET_ORDER = (NetworkId.XY, NetworkId.YX)

#: Largest tile count whose per-network LUT (n² bytes) is tabulated;
#: beyond this (> ~64 MB per network) ports are computed arithmetically.
LUT_MAX_TILES = 8192

#: Neighbour offsets in port-code order N, S, W, E.
_PORT_STEPS = ((-1, 0), (1, 0), (0, -1), (0, 1))

#: Initial packet-pool capacity (slots); the pool doubles on demand.
_POOL_START = 1024

# Neighbour-table sentinels (column 4 of the 5-wide table).
_HOP_DEAD = -1     # off-mesh or faulty downstream: DoR drops the packet
_HOP_LOCAL = -2    # LOCAL port: delivery

#: (in + 1) mod 5 as a gather table — the round-robin pointer update.
_NEXT_RR = np.array([1, 2, 3, 4, 0], dtype=np.int8)
#: Shared empty drop result for the (common) no-dead-hop cycles.
_EMPTY_I64 = np.empty(0, dtype=np.int64)

# Composite-key layout for the arbitration sort: lane index in the low
# bits, round-robin key above it, target lane on top.  Each tile owns
# 2 networks x 5 ports = 10 lanes, so 24 bits of lane index bound the
# mesh at _MAX_TILES (~1.68M) tiles — far beyond what the FIFO arrays
# fit in memory anyway.
_LI_BITS = 24
_LI_MASK = (1 << _LI_BITS) - 1
_KEY_SHIFT = _LI_BITS
_TGT_SHIFT = _LI_BITS + 3

#: Largest tile count the vector engine supports (10 lanes per tile).
_MAX_TILES = _LI_MASK // 10


class _MeshState:
    """Struct-of-arrays state for both networks of one mesh.

    Virtual tile index ``v = net * n + tile`` (``n`` = tiles per
    network); lane index ``v * 5 + port`` flattens the port axis.  One
    :meth:`step_cycle` call arbitrates and applies both networks.
    """

    def __init__(
        self,
        config: SystemConfig,
        fault_map: FaultMap,
        fifo_depth: int,
    ) -> None:
        rows, cols, n = config.rows, config.cols, config.tiles
        if n > _MAX_TILES:
            raise NetworkError(
                f"{rows}x{cols} mesh ({n} tiles) is too large for the "
                f"vector engine: at most {_MAX_TILES} tiles are supported"
            )
        total = 2 * n
        self.rows, self.cols, self.n = rows, cols, n
        self.depth = fifo_depth

        healthy = np.ones(total, dtype=bool)
        for idx in fault_map.faulty_flat_indices():
            healthy[idx] = False
            healthy[n + idx] = False
        self.healthy = healthy

        v = np.arange(total, dtype=np.int64)
        self.loc = v % n
        self.tile_r = self.loc // cols
        self.tile_c = self.loc % cols

        # 5-wide virtual neighbour table: columns 0-3 are the link
        # targets (staying inside the same network block, which keeps
        # the stacked networks independent), column 4 is the LOCAL
        # sentinel.  -1 = off-mesh or faulty downstream.
        nbrs = np.full((total, 5), _HOP_DEAD, dtype=np.int64)
        for code, (dr, dc) in enumerate(_PORT_STEPS):
            nr, nc = self.tile_r + dr, self.tile_c + dc
            on_mesh = (0 <= nr) & (nr < rows) & (0 <= nc) & (nc < cols)
            j = np.where(on_mesh, v + dr * cols + dc, 0)
            nbrs[:, code] = np.where(on_mesh & healthy[j], j, _HOP_DEAD)
        nbrs[:, 4] = _HOP_LOCAL
        self.nbrs = nbrs
        self.nbrs_f = nbrs.reshape(-1)

        # Downstream-entry lane per (tile, out): hop*5 + entry-port for
        # link hops; LOCAL/dead hops point at the padding slot past the
        # real lanes, which always reads occupancy 0 ("never full"), so
        # the kernel's credit gather needs no masking at all.
        pad = total * 5
        entry_lane = np.full((total, 5), pad, dtype=np.int64)
        for code in range(4):
            hop = nbrs[:, code]
            entry_lane[:, code] = np.where(
                hop >= 0, hop * 5 + (code ^ 1), pad
            )
        self.entry_lane_f = entry_lane.reshape(-1)

        # Output-port lookup: both networks' LUTs concatenated, indexed
        # by a precomputed per-lane base (net * n*n + tile * n) plus
        # the destination's flat tile index.  Past LUT_MAX_TILES that
        # table would exceed ~128 MB, so ports are then computed
        # arithmetically per cycle instead.
        if n <= LUT_MAX_TILES:
            self.lut: np.ndarray | None = np.concatenate(
                [build_port_lut(rows, cols, net.policy).ravel()
                 for net in NET_ORDER]
            )
            base = (v // n) * (n * n) + self.loc * n
            self.lut_base_lane: np.ndarray | None = np.repeat(base, 5)
        else:
            self.lut = None
            self.lut_base_lane = None

        # FIFO state, flat over (virtual tile, port) lanes.  The 2-D /
        # 3-D attributes are views over the same memory for cold paths
        # (injection, checkpoint, telemetry walks).  qlen carries one
        # padding element (always 0) as the entry_lane sentinel target.
        self.buf = np.zeros((total, 5, fifo_depth), dtype=np.int64)
        self.buf_f = self.buf.reshape(-1)
        self.head = np.zeros((total, 5), dtype=np.int32)
        self.head_f = self.head.reshape(-1)
        self.qlen_f = np.zeros(total * 5 + 1, dtype=np.int32)
        self.qlen = self.qlen_f[: total * 5].reshape(total, 5)
        self.rr = np.zeros((total, 5), dtype=np.int8)
        self.rr_f = self.rr.reshape(-1)
        self.fwd = np.zeros(total, dtype=np.int64)
        # Power-of-two ring depths wrap with a mask instead of a mod.
        self._dmask = (
            fifo_depth - 1 if fifo_depth & (fifo_depth - 1) == 0 else 0
        )

        # Packet pool: numeric per-slot state for the kernel plus the
        # Packet sidecar for everything outside it.
        self.p_dst = np.zeros(_POOL_START, dtype=np.int64)
        self.pkt: list[Packet | None] = [None] * _POOL_START
        self.free = list(range(_POOL_START - 1, -1, -1))

        # Reusable lane-index iota and scratch buffers for the
        # composite arbitration keys (grown on demand).
        self._iota = np.arange(4096, dtype=np.int64)
        self._scr_a = np.empty(4096, dtype=np.int64)
        self._scr_b = np.empty(4096, dtype=np.int64)
        self._scr_first = np.empty(4096, dtype=bool)

    # -- packet pool ---------------------------------------------------

    def _grow_pool(self) -> None:
        old = len(self.pkt)
        new = old * 2
        self.p_dst = np.concatenate(
            [self.p_dst, np.zeros(new - old, dtype=np.int64)]
        )
        self.pkt.extend([None] * (new - old))
        self.free.extend(range(new - 1, old - 1, -1))

    def acquire(self, packet: Packet, dst_flat: int) -> int:
        """Claim a pool slot for a packet entering the network."""
        if not self.free:
            self._grow_pool()
        pid = self.free.pop()
        self.p_dst[pid] = dst_flat
        self.pkt[pid] = packet
        return pid

    def release(self, pid: int) -> Packet:
        """Free a slot (delivery or drop) and return its packet."""
        packet = self.pkt[pid]
        self.pkt[pid] = None
        self.free.append(pid)
        return packet

    # -- FIFO access (cold paths: injection, checkpoint) ---------------

    def push_port(self, v: int, port: int, pid: int) -> None:
        """Append one pool id to a FIFO (caller checked the credit)."""
        lane = v * 5 + port
        tail = (self.head_f[lane] + self.qlen_f[lane]) % self.depth
        self.buf[v, port, tail] = pid
        self.qlen_f[lane] += 1

    def fifo_packets(self, v: int, port: int) -> list[Packet]:
        """Queued packets of one FIFO, head first."""
        head = int(self.head[v, port])
        count = int(self.qlen[v, port])
        return [
            self.pkt[int(self.buf[v, port, (head + k) % self.depth])]
            for k in range(count)
        ]

    def occupancy(self) -> np.ndarray:
        """Buffered packets per virtual tile (cold-path derivation)."""
        return self.qlen.sum(axis=1)

    # -- the vectorized cycle ------------------------------------------

    def step_cycle(self, detail: bool = False) -> tuple | None:
        """Arbitrate and apply one cycle on both networks.

        Returns ``(grant_v, grant_out, grant_in, grant_pid, deliver_v,
        deliver_pid, drop_v, drop_pid, stalls)`` — every array in
        ascending virtual-tile order (XY network first, then YX), which
        is the order the caller must process deliveries in to keep
        latency lists bit-identical; ``stalls`` is the count of winners
        denied a downstream credit — or None on an idle mesh.

        ``detail=False`` skips the output only invariant checkers
        consume: ``grant_out`` comes back ``None``.  The mesh state
        transition is identical either way.
        """
        qlen_f = self.qlen_f
        lanes = np.flatnonzero(qlen_f > 0)   # occupied lanes, ascending
        nlanes = lanes.size
        if nlanes == 0:
            return None
        depth = self.depth
        dmask = self._dmask
        head_f = self.head_f
        buf_f = self.buf_f
        if nlanes > self._iota.size:
            cap = max(nlanes, 2 * self._iota.size)
            self._iota = np.arange(cap, dtype=np.int64)
            self._scr_a = np.empty(cap, dtype=np.int64)
            self._scr_b = np.empty(cap, dtype=np.int64)
            self._scr_first = np.empty(cap, dtype=bool)

        # Head-of-line gather: one packet id, destination and output
        # port per occupied lane.
        vl = lanes % 5                       # input-port code per lane
        hd = head_f[lanes]
        pid_l = buf_f[lanes * depth + hd]
        dst = self.p_dst[pid_l]
        if self.lut is not None:
            o = self.lut[self.lut_base_lane[lanes] + dst]
        else:
            o = self._arithmetic_ports(lanes, dst)

        # Composite arbitration sort.  tgt = v*5 + out identifies the
        # contended output port; key = (in - rr[tgt]) mod 5 is the
        # reference engine's round-robin scan distance, so the minimal
        # key per target — the first entry of each target group after
        # the sort — is exactly the scan winner.  (tgt, key) pairs are
        # unique per target, so the lane-index tiebreak never decides.
        tgt = np.subtract(lanes, vl, out=self._scr_a[:nlanes])
        tgt += o
        key = np.subtract(vl, self.rr_f[tgt], out=self._scr_b[:nlanes])
        key %= 5
        key <<= _KEY_SHIFT
        comp = tgt                           # shift tgt into place last
        comp <<= _TGT_SHIFT
        comp += key
        comp += self._iota[:nlanes]
        comp.sort()
        tgt_s = np.right_shift(comp, _TGT_SHIFT, out=self._scr_b[:nlanes])
        first = self._scr_first[:nlanes]
        first[0] = True
        np.not_equal(tgt_s[1:], tgt_s[:-1], out=first[1:])
        cw = comp[first]
        tgt_w = tgt_s[first]

        # Downstream-credit check over the winners: the precomputed
        # entry-lane table maps LOCAL and drop hops to the padded
        # always-empty qlen slot, so one gather suffices — no masking.
        e_lane = self.entry_lane_f[tgt_w]
        stall = qlen_f[e_lane] >= depth
        grant = ~stall

        cg = cw[grant]
        li_g = cg & _LI_MASK
        tgt_g = cg >> _TGT_SHIFT
        g_v = tgt_g // 5
        g_lane = lanes[li_g]                 # = v*5 + in-port
        g_in = vl[li_g]
        g_pid = pid_l[li_g]
        g_hop = self.nbrs_f[tgt_g]
        g_out = tgt_g - g_v * 5 if detail else None

        # Apply pops: winner in-lanes are unique (a lane requests one
        # output), so plain fancy assignment is race-free.
        if dmask:
            head_f[g_lane] = (hd[li_g] + 1) & dmask
        else:
            head_f[g_lane] = (hd[li_g] + 1) % depth
        qlen_f[g_lane] -= 1
        self.rr_f[tgt_g] = _NEXT_RR[g_in]
        np.add.at(self.fwd, g_v, 1)

        # Apply pushes: a pop never moves a FIFO's tail, so the
        # post-pop (head + len) mod depth is the correct slot even when
        # the same FIFO popped this cycle.  Each downstream (tile,
        # entry-port) receives at most one packet, so these are
        # race-free too.
        moved = g_hop >= 0
        if moved.any():
            p_lane = e_lane[grant][moved]
            if dmask:
                tail = (head_f[p_lane] + qlen_f[p_lane]) & dmask
            else:
                tail = (head_f[p_lane] + qlen_f[p_lane]) % depth
            buf_f[p_lane * depth + tail] = g_pid[moved]
            qlen_f[p_lane] += 1

        local = g_hop == _HOP_LOCAL
        dead = g_hop == _HOP_DEAD
        if dead.any():
            drop_v, drop_pid = g_v[dead], g_pid[dead]
        else:
            drop_v = drop_pid = _EMPTY_I64
        return (
            g_v, g_out, g_in, g_pid,
            g_v[local], g_pid[local],
            drop_v, drop_pid,
            int(np.count_nonzero(stall)),
        )

    def _arithmetic_ports(self, lanes: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """DoR output ports without a LUT (meshes past LUT_MAX_TILES)."""
        v = lanes // 5
        cur_r, cur_c = self.tile_r[v], self.tile_c[v]
        dst_r, dst_c = dst // self.cols, dst % self.cols
        out_xy = dor_port_codes(cur_r, cur_c, dst_r, dst_c, NET_ORDER[0].policy)
        out_yx = dor_port_codes(cur_r, cur_c, dst_r, dst_c, NET_ORDER[1].policy)
        return np.where(v >= self.n, out_yx, out_xy)


class _PendingQueues:
    """Per-tile injection queues of the vector engine.

    Admission into a LOCAL FIFO depends only on that FIFO's credit and
    the arrival order of packets *for that tile*, so grouping the
    backlog by (network, tile) is semantically identical to the base
    class's ordered rescan of the whole list — while costing only the
    tiles that currently have both backlog and a free slot, instead of
    the entire backlog, every cycle.
    """

    __slots__ = ("queues", "count")

    def __init__(self) -> None:
        self.queues: dict[int, deque] = {}
        self.count = 0

    def push(self, key: int, packet: Packet) -> None:
        queue = self.queues.get(key)
        if queue is None:
            queue = self.queues[key] = deque()
        queue.append(packet)
        self.count += 1

    def flatten(self, net_of_key) -> list:
        """``(packet, network)`` pairs, in (network, tile) key order."""
        return [
            (packet, net_of_key(key))
            for key in sorted(self.queues)
            for packet in self.queues[key]
        ]


class VectorNocSimulator(NocSimulator):
    """Whole-array numpy :class:`NocSimulator` engine (``engine="vector"``).

    Use ``NocSimulator(config, ..., engine="vector")`` rather than
    instantiating this class directly.  Per-router state is exposed
    through :meth:`router_occupancy` and :meth:`router_forwarded`
    instead of the reference engine's ``routers`` grids.
    """

    def __init__(
        self,
        config: SystemConfig,
        fault_map: FaultMap | None = None,
        fifo_depth: int = 4,
        response_delay: int = 2,
        telemetry: Telemetry | None = None,
        engine: str = "vector",
        checkers: "Iterable[InvariantChecker] | None" = None,
    ):
        super().__init__(
            config,
            fault_map=fault_map,
            fifo_depth=fifo_depth,
            response_delay=response_delay,
            telemetry=telemetry,
            engine=engine,
            checkers=checkers,
        )

    # ------------------------------------------------------------------
    # State

    def _build_state(self) -> None:
        self._rows = self.config.rows
        self._cols = self.config.cols
        self._n = self.config.tiles
        self._mesh = _MeshState(self.config, self.fault_map, self.fifo_depth)
        self._pend = _PendingQueues()
        self._healthy_list = self._mesh.healthy[: self._n].tolist()
        # Fresh (key, packet, network) injections of the current cycle;
        # admitted — or spilled into ``_pend`` — by the next step().
        self._fresh: list[tuple[int, Packet, NetworkId]] = []

    def router_occupancy(self, network: NetworkId, coord) -> int:
        """Packets buffered at one router (flat-state inspection)."""
        v = network.value * self._n + coord[0] * self._cols + coord[1]
        return int(self._mesh.qlen[v].sum())

    def router_forwarded(self, network: NetworkId, coord) -> int:
        """Packets forwarded by one router since construction."""
        v = network.value * self._n + coord[0] * self._cols + coord[1]
        return int(self._mesh.fwd[v])

    # ------------------------------------------------------------------
    # Injection

    def inject(self, packet: Packet, network: NetworkId) -> bool:
        """Queue a packet for injection (same contract as the base)."""
        cols = self._cols
        rows = self._rows
        src, dst = packet.src, packet.dst
        if not (
            0 <= src[0] < rows and 0 <= src[1] < cols
            and 0 <= dst[0] < rows and 0 <= dst[1] < cols
        ):
            self.config.validate_coord(src)
            self.config.validate_coord(dst)
        healthy = self._healthy_list
        if not (
            healthy[src[0] * cols + src[1]] and healthy[dst[0] * cols + dst[1]]
        ):
            self.dropped_unreachable += 1
            if self._obs is not None:
                self._m_dropped.inc()
            return False
        self._fresh.append(
            (network.value * self._n + src[0] * cols + src[1], packet, network)
        )
        return True

    def _release_due_responses(self) -> None:
        # Responses are appended in cycle order with a constant delay,
        # so the pending list is sorted by due cycle: peel the due
        # prefix straight into the fresh-injection list.  Appending
        # after the cycle's driver packets reproduces the base class's
        # admission order (backlog, then driver traffic, then released
        # responses); response endpoints are healthy by construction.
        pending = self._pending_responses
        cycle = self.cycle
        if not pending or pending[0][0] > cycle:
            return
        n = self._n
        cols = self._cols
        fresh = self._fresh
        i = 0
        end = len(pending)
        while i < end and pending[i][0] <= cycle:
            _, packet, net = pending[i]
            src = packet.src
            fresh.append(
                (net.value * n + src[0] * cols + src[1], packet, net)
            )
            i += 1
        del pending[:i]

    def _try_local_injections(self) -> None:
        mesh = self._mesh
        pend = self._pend
        cols = self._cols
        n = self._n
        depth = self.fifo_depth
        qlen_f = mesh.qlen_f
        # Fold externally queued packets (checkpoint restore, released
        # responses) into the per-tile backlog; packets from dead
        # sources drop here, as in every engine.
        if self._pending_injections:
            healthy = self._healthy_list
            for packet, net in self._pending_injections:
                src = packet.src
                idx = src[0] * cols + src[1]
                if not healthy[idx]:
                    self.dropped_unreachable += 1
                    if self._obs is not None:
                        self._m_dropped.inc()
                    continue
                pend.push(net.value * n + idx, packet)
            self._pending_injections = []

        fresh = self._fresh
        if not pend.count and not fresh:
            return
        cycle = self.cycle
        acc_keys: list[int] = []
        acc_rank: list[int] = []
        pids: list[int] = []
        dsts: list[int] = []
        acc_cnt: dict[int, int] = {}
        pool_free = mesh.free
        pkt_list = mesh.pkt
        ranked = False
        c_yx = 0

        def take(key: int, rank: int, packet: Packet) -> None:
            nonlocal c_yx
            if packet.injected_cycle is None:
                packet.injected_cycle = cycle
            if not pool_free:
                mesh._grow_pool()
            pid = pool_free.pop()
            pkt_list[pid] = packet
            pids.append(pid)
            dst = packet.dst
            dsts.append(dst[0] * cols + dst[1])
            acc_keys.append(key)
            acc_rank.append(rank)
            if key >= n:
                c_yx += 1

        # Backlogged packets admit first (per-tile FIFO order).
        if pend.count:
            queues = pend.queues
            keys = np.fromiter(queues.keys(), dtype=np.int64, count=len(queues))
            open_keys = keys[qlen_f[keys * 5 + 4] < depth]
            drained = 0
            for key in open_keys.tolist():
                queue = queues[key]
                room = depth - int(qlen_f[key * 5 + 4])
                taken = 0
                while queue and taken < room:
                    take(key, taken, queue.popleft())
                    taken += 1
                if taken:
                    acc_cnt[key] = taken
                    drained += taken
                    if taken > 1:
                        ranked = True
                if not queue:
                    del queues[key]
            pend.count -= drained

        # Fresh packets follow; a tile with surviving backlog (its FIFO
        # is full) queues them behind it instead.
        if fresh:
            queues = pend.queues
            get_cnt = acc_cnt.get
            keys_append = acc_keys.append
            rank_append = acc_rank.append
            pids_append = pids.append
            dsts_append = dsts.append
            for key, packet, net in fresh:
                if key in queues:
                    pend.push(key, packet)
                    continue
                rank = get_cnt(key, 0)
                if int(qlen_f[key * 5 + 4]) + rank < depth:
                    acc_cnt[key] = rank + 1
                    if rank:
                        ranked = True
                    if packet.injected_cycle is None:
                        packet.injected_cycle = cycle
                    if not pool_free:
                        mesh._grow_pool()
                    pid = pool_free.pop()
                    pkt_list[pid] = packet
                    pids_append(pid)
                    dst = packet.dst
                    dsts_append(dst[0] * cols + dst[1])
                    keys_append(key)
                    rank_append(rank)
                    if key >= n:
                        c_yx += 1
                else:
                    pend.push(key, packet)
            self._fresh = []

        accepted = len(acc_keys)
        if accepted:
            # One vectorized FIFO apply for everything accepted.
            k = np.array(acc_keys, dtype=np.int64)
            pid_arr = np.array(pids, dtype=np.int64)
            mesh.p_dst[pid_arr] = dsts
            lane = k * 5 + 4
            tail = mesh.head_f[lane] + qlen_f[lane]
            if ranked:
                tail += acc_rank
                np.add.at(qlen_f, lane, 1)
            else:
                qlen_f[lane] += 1     # keys unique when no rank > 0
            tail %= depth
            mesh.buf_f[lane * depth + tail] = pid_arr
            self.injected_count += accepted
            self._in_flight += accepted
            if c_yx:
                self._net_occupancy[NET_ORDER[1]] += c_yx
            if accepted - c_yx:
                self._net_occupancy[NET_ORDER[0]] += accepted - c_yx

        if self._obs is not None:
            if accepted:
                self._m_injected.inc(accepted)
            if pend.count:
                self._m_inject_backpressure.inc(pend.count)

    def idle(self) -> bool:
        """True when no packet is queued, buffered or pending anywhere."""
        if self._pend.count or self._fresh:
            return False
        return super().idle()

    def _pending_injection_list(self) -> list:
        n = self._n
        items = self._pend.flatten(lambda key: NET_ORDER[key // n])
        items.extend(self._pending_injections)
        items.extend((packet, net) for _, packet, net in self._fresh)
        return items

    # ------------------------------------------------------------------
    # Per-cycle path

    def step(self) -> None:
        """Advance the simulation by one cycle (vectorized kernel)."""
        self._release_due_responses()
        if self._pending_injections or self._pend.count or self._fresh:
            self._try_local_injections()

        mesh = self._mesh
        n = self._n
        moved = 0
        stalled = 0
        outcome = mesh.step_cycle(detail=self._chk_grant is not None)
        if outcome is not None:
            (g_v, g_out, g_in, g_pid,
             deliver_v, deliver_pid,
             drop_v, drop_pid, stalled) = outcome
            moved = g_pid.size
            if self._chk_grant is not None and moved:
                cols = self._cols
                pkt = mesh.pkt
                for v, o, i, pid in zip(
                    g_v.tolist(), g_out.tolist(), g_in.tolist(), g_pid.tolist()
                ):
                    net = NET_ORDER[v // n]
                    for fn in self._chk_grant:
                        fn(
                            self,
                            net,
                            divmod(v % n, cols),
                            o,
                            i,
                            pkt[pid],
                            (i + 1) % 5,
                        )
            if drop_pid.size:
                self.dropped_unreachable += drop_pid.size
                self.dropped_in_flight += drop_pid.size
                self._in_flight -= drop_pid.size
                for v, pid in zip(drop_v.tolist(), drop_pid.tolist()):
                    net = NET_ORDER[v // n]
                    self._net_occupancy[net] -= 1
                    packet = mesh.release(pid)
                    if self._chk_drop is not None:
                        for fn in self._chk_drop:
                            fn(self, packet, net)
            if deliver_pid.size:
                if self._obs is None:
                    self._bulk_deliver(deliver_v, deliver_pid)
                    if self._chk_deliver is not None:
                        # Checkers see each delivery in order, after the
                        # cycle's counters and responses are booked.
                        delivered = self.delivered_packets[-deliver_pid.size:]
                        for v, packet in zip(deliver_v.tolist(), delivered):
                            for fn in self._chk_deliver:
                                fn(self, packet, NET_ORDER[v // n])
                else:
                    for v, pid in zip(deliver_v.tolist(), deliver_pid.tolist()):
                        self._deliver(mesh.release(pid), NET_ORDER[v // n])

        self.link_stalls += stalled
        if self._obs is not None:
            self._record_step(moved, stalled)
        if self._chk_step is not None:
            for fn in self._chk_step:
                fn(self)
        self.cycle += 1

    def _bulk_deliver(self, deliver_v: np.ndarray, deliver_pid: np.ndarray) -> None:
        """Deliver a cycle's packets without telemetry hooks.

        Field-for-field identical to looping the base ``_deliver``:
        stamps, counters and response scheduling all match, including
        response packet-id assignment order.
        """
        mesh = self._mesh
        n = self._n
        cycle = self.cycle
        pkt = mesh.pkt
        free = mesh.free
        delivered = self.delivered_packets
        responses = self._pending_responses
        due = cycle + self.response_delay
        net_xy, net_yx = NET_ORDER
        comp_xy, comp_yx = net_xy.complement, net_yx.complement
        request = PacketKind.REQUEST
        response_kind = PacketKind.RESPONSE
        new = object.__new__
        count = deliver_pid.size
        c_yx = 0
        for v, pid in zip(deliver_v.tolist(), deliver_pid.tolist()):
            p = pkt[pid]
            pkt[pid] = None
            free.append(pid)
            p.delivered_cycle = cycle
            delivered.append(p)
            if v >= n:
                c_yx += 1
                comp = comp_yx
            else:
                comp = comp_xy
            if p.kind is request:
                # Slot-direct construction skips __post_init__; the
                # echoed address/payload were validated on the request.
                r = new(Packet)
                r.kind = response_kind
                r.src = p.dst
                r.dst = p.src
                r.address = p.address
                r.payload = p.payload
                r.packet_id = next(_packets._packet_ids)
                r.injected_cycle = None
                r.delivered_cycle = None
                r.request_id = p.packet_id
                responses.append((due, r, comp))
        c_xy = count - c_yx
        self._in_flight -= count
        if c_xy:
            self._per_network_delivered[net_xy] += c_xy
            self._net_occupancy[net_xy] -= c_xy
        if c_yx:
            self._per_network_delivered[net_yx] += c_yx
            self._net_occupancy[net_yx] -= c_yx

    # ------------------------------------------------------------------
    # Telemetry and checker walks over flat state

    def _iter_fifo_lengths(self) -> Iterator[tuple[NetworkId, Coord, int, int]]:
        """``(network, coord, port_code, occupancy)`` from the ring arrays."""
        mesh = self._mesh
        cols = self._cols
        n = self._n
        for net_i, net in enumerate(NET_ORDER):
            base = net_i * n
            for idx in range(n):
                if not mesh.healthy[idx]:
                    continue
                coord = divmod(idx, cols)
                for port in range(5):
                    yield net, coord, port, int(mesh.qlen[base + idx, port])

    def _record_router_distributions(self) -> None:
        """Per-router load snapshot as two vectorized histogram updates."""
        if self._router_snapshot_cycle == self.cycle:
            return
        self._router_snapshot_cycle = self.cycle
        metrics = self.telemetry.metrics
        mesh = self._mesh
        n = self._n
        healthy = mesh.healthy[:n]
        occ = mesh.occupancy()
        for net_i, net in enumerate(NET_ORDER):
            rows = slice(net_i * n, (net_i + 1) * n)
            metrics.histogram(
                "noc.router_forwarded_packets", network=net.name
            ).observe_many(mesh.fwd[rows][healthy])
            metrics.histogram(
                "noc.router_buffered_packets", network=net.name
            ).observe_many(occ[rows][healthy])

    # ------------------------------------------------------------------
    # Checkpoint/restore (engine-portable layout; see base class)

    def _snapshot_engine_state(self) -> dict:
        mesh = self._mesh
        n = self._n
        fifos = [
            [
                [
                    mesh.fifo_packets(net_i * n + idx, port)
                    for port in range(5)
                ]
                for idx in range(n)
            ]
            for net_i in range(2)
        ]
        rr = [
            mesh.rr[net_i * n:(net_i + 1) * n].tolist() for net_i in range(2)
        ]
        fwd = [
            mesh.fwd[net_i * n:(net_i + 1) * n].tolist() for net_i in range(2)
        ]
        return {"fifos": fifos, "rr": rr, "fwd": fwd}

    def _restore_engine_state(self, state: dict) -> None:
        mesh = self._mesh
        cols = self._cols
        n = self._n
        for net_i in range(2):
            for idx in range(n):
                if not mesh.healthy[idx]:
                    continue
                for port in range(5):
                    for packet in state["fifos"][net_i][idx][port]:
                        dst = packet.dst
                        pid = mesh.acquire(packet, dst[0] * cols + dst[1])
                        mesh.push_port(net_i * n + idx, port, pid)
            rows = slice(net_i * n, (net_i + 1) * n)
            mesh.rr[rows] = np.asarray(state["rr"][net_i], dtype=np.int8)
            mesh.fwd[rows] = np.asarray(state["fwd"][net_i], dtype=np.int64)
