"""Batched numpy engine for the cycle-level NoC simulator.

The reference engine (:mod:`.simulator`) arbitrates every router
object of both networks every cycle in Python, which tops out near 20
cycles/s at full-wafer (32x32 tiles = 2048 chiplets) saturation.  This
module computes the *same semantics* (bit-identical
:class:`~repro.noc.simulator.SimulationReport`s, enforced by the
differential suite and ``repro verify --suite noc``) as whole-array
numpy operations over struct-of-arrays state:

* **Packet table** — every packet is one row of append-only columns
  (one per :class:`Packet` field) from injection to delivery; FIFOs,
  backlogs and the delivery log hold row ids.  :meth:`inject_many`
  writes a cycle's schedule slice straight into rows, and
  ``delivered_packets`` materialises objects only when read.  No
  :class:`Packet` is built unless grant, drop or deliver hooks,
  telemetry, a checkpoint or a reader of ``delivered_packets`` asks
  for one; the packets handed to grant and drop hooks are fresh
  copies of the rows, not the objects ``delivered_packets`` returns.
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
* **Credit-indexed injection** — the injection backlog is one linked
  list of rows per (network, tile), so admission pops at most the free
  LOCAL-FIFO credit off each list head and fresh arrivals go straight
  into FIFOs with room, all as array operations; a saturated run never
  rescans the backlog as the reference engine does.

Delivery order — and therefore the report's latency list — is identical
to the reference engine because winners are emitted in ascending
virtual-tile order (XY network first, then YX, each in ascending flat
tile order), each tile delivers at most one LOCAL packet per network
per cycle, and each downstream FIFO receives at most one push per cycle
(ports are unique per winner).

Admission, delivery and response creation are array operations here
too; draining, the report, checkpointing and telemetry come from the
:class:`~repro.noc.simulator.NocSimulator` base class, fed by column
views (``_delivery_stats``, the pending-packet lists) of this engine's
state.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from ..config import Coord, SystemConfig
from ..errors import NetworkError
from ..obs.telemetry import Telemetry
from .dualnetwork import NetworkId
from .faults import FaultMap
from .packets import Packet, PacketKind, materialise_packets, reserve_packet_ids
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

#: Initial packet-table capacity (rows); the table doubles on demand.
_TABLE_START = 1024

#: Integer columns of the packet table (see :class:`_PacketTable`), in
#: storage order, with the value a fresh row holds: a REQUEST with no
#: request id, not yet injected or delivered, at address 0.  The first
#: _INBOX_WIDTH are an inbox row's layout; the first _PACKET_WIDTH are
#: a Packet's fields (the payload, uint64, is its own column).
_INT_FIELDS = (
    ("src", 0),
    ("dst", 0),
    ("kind", PacketKind.REQUEST.value),
    ("packet_id", 0),
    ("request_id", -1),
    ("injected", -1),
    ("address", 0),
    ("delivered", -1),
    ("link", 0),
)
_SRC, _DST, _KIND, _ID, _REQ, _INJ, _ADDR, _DLV, _LINK = range(len(_INT_FIELDS))
_INBOX_WIDTH = _ADDR + 1
_PACKET_WIDTH = _DLV + 1

_RESPONSE = PacketKind.RESPONSE
_REQUEST_KIND = PacketKind.REQUEST.value
#: A response row's fields gathered from its request's row (the others
#: keep their fresh-row values, or are set from the request's context).
_RESPONSE_TO = np.array([_SRC, _DST, _REQ, _ADDR])
_RESPONSE_FROM = np.array([_DST, _SRC, _ID, _ADDR])[:, None]
_YX = NET_ORDER[1]


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


class _PacketTable:
    """Every packet that entered the engine, one append-only row each.

    One column per :class:`Packet` field (``src``/``dst`` as flat tile
    indices, ``kind`` as the :class:`PacketKind` value, -1 for a
    ``None`` id or cycle), plus ``link``: the next row of the same
    tile's injection backlog.  The integer columns are the rows of one
    2-D block (``self.src`` is ``self.ints[0]``, and so on), so copying
    packets in or out is one array operation.  Rows are never reused:
    a delivered packet stays readable where it was simulated, and the
    delivery log is just a list of row ids.  Capacity doubles on demand.
    """

    def __init__(self) -> None:
        self.size = 0
        self._allocate(_TABLE_START)

    def _allocate(self, capacity: int) -> None:
        fresh = np.array([value for _, value in _INT_FIELDS], dtype=np.int64)
        ints = np.repeat(fresh[:, None], capacity, axis=1)
        payload = np.zeros(capacity, dtype=np.uint64)
        if self.size:
            ints[:, : self.size] = self.ints[:, : self.size]
            payload[: self.size] = self.payload[: self.size]
        self.ints, self.payload, self.capacity = ints, payload, capacity
        for row, (name, _) in enumerate(_INT_FIELDS):
            setattr(self, name, ints[row])

    def add(self, count: int) -> slice:
        """Append ``count`` fresh rows; callers set the other fields."""
        start = self.size
        if start + count > self.capacity:
            self._allocate(max(start + count, 2 * self.capacity))
        self.size = start + count
        return slice(start, start + count)

    def packets(self, rows: np.ndarray, cols: int) -> list[Packet]:
        """Materialise the packets of ``rows``."""
        src, dst, kind, packet_id, request_id, injected, address, delivered = (
            self.ints.take(rows, axis=1)[:_PACKET_WIDTH].tolist()
        )
        return materialise_packets(
            cols, src, dst, packet_id,
            kind=kind,
            request_id=request_id,
            injected=injected,
            delivered=delivered,
            address=address,
            payload=self.payload[rows].tolist(),
        )


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

        self.table = _PacketTable()

        # Reusable lane-index iota and scratch buffers for the
        # composite arbitration keys (grown on demand).
        self._iota = np.arange(4096, dtype=np.int64)
        self._scr_a = np.empty(4096, dtype=np.int64)
        self._scr_b = np.empty(4096, dtype=np.int64)
        self._scr_first = np.empty(4096, dtype=bool)

    # -- FIFO access (cold paths: injection, checkpoint) ---------------

    def push_port(self, v: int, port: int, pid: int) -> None:
        """Append one packet row to a FIFO (caller checked the credit)."""
        lane = v * 5 + port
        tail = (self.head_f[lane] + self.qlen_f[lane]) % self.depth
        self.buf[v, port, tail] = pid
        self.qlen_f[lane] += 1

    def fifo_rows(self, v: int, port: int) -> list[int]:
        """Packet rows queued in one FIFO, head first."""
        head = int(self.head[v, port])
        count = int(self.qlen[v, port])
        return [
            int(self.buf[v, port, (head + k) % self.depth])
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
        dst = self.table.dst[pid_l]
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


class VectorNocSimulator(NocSimulator):
    """Whole-array numpy :class:`NocSimulator` engine (``engine="vector"``).

    Use ``NocSimulator(config, ..., engine="vector")`` rather than
    instantiating this class directly.  Per-router state is exposed
    through :meth:`router_occupancy` and :meth:`router_forwarded`
    instead of the reference engine's ``routers`` grids.

    Packets are rows of a column table from injection on: ``inject``
    copies a caller's :class:`Packet` in (and never stamps it), and
    :attr:`delivered_packets` materialises delivered rows on access.
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
        n = self.config.tiles
        self._rows = self.config.rows
        self._cols = self.config.cols
        self._n = n
        self._mesh = _MeshState(self.config, self.fault_map, self.fifo_depth)
        self._table = self._mesh.table
        self._healthy_list = self._mesh.healthy[:n].tolist()
        # Delivered rows in delivery order, and their objects
        # materialised so far.
        self._delivered_rows: list[int] = []
        self._delivered_view: list[Packet] = []
        # Packets injected one by one since the last flush: flat rows of
        # the first _INBOX_WIDTH table fields plus the packet's key, and
        # their payloads.
        self._inbox: list[int] = []
        self._inbox_payload: list[int] = []
        # (key, row) chunks queued since the last step, in admission
        # order; key = virtual source tile (network * n + tile).
        self._arrivals: list[tuple[np.ndarray, np.ndarray]] = []
        # Scheduled responses: (due cycle, keys, rows), due first.
        self._responses: deque[tuple[int, np.ndarray, np.ndarray]] = deque()
        # Per-key injection backlog: a linked list through table.link.
        self._bk_head = np.zeros(2 * n, dtype=np.int64)
        self._bk_tail = np.zeros(2 * n, dtype=np.int64)
        self._bk_len = np.zeros(2 * n, dtype=np.int64)
        self._backlog = 0
        self._local_lanes = np.arange(2 * n, dtype=np.int64) * 5 + 4

    @property
    def delivered_packets(self) -> list[Packet]:
        """Delivered packets in delivery order, materialised on access.

        The list is extended in place as deliveries happen, so earlier
        entries keep their identity across accesses.
        """
        view = self._delivered_view
        if len(view) < len(self._delivered_rows):
            rows = np.array(self._delivered_rows[len(view):], dtype=np.int64)
            view.extend(self._table.packets(rows, self._cols))
        return view

    @delivered_packets.setter
    def delivered_packets(self, packets: list[Packet]) -> None:
        packets = list(packets)
        _, rows = self._to_table((p, NET_ORDER[0]) for p in packets)
        self._table.delivered[rows] = [
            -1 if p.delivered_cycle is None else p.delivered_cycle
            for p in packets
        ]
        self._delivered_rows = rows.tolist()
        self._delivered_view = packets

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
        """Queue a packet for injection (same contract as the base).

        The packet's fields are copied into the inbox (and from there
        into the table); the caller's object is never stamped.
        """
        cols = self._cols
        rows = self._rows
        (sr, sc), (dr, dc) = packet.src, packet.dst
        if not (0 <= sr < rows and 0 <= sc < cols and 0 <= dr < rows and 0 <= dc < cols):
            self.config.validate_coord(packet.src)
            self.config.validate_coord(packet.dst)
        s = sr * cols + sc
        d = dr * cols + dc
        healthy = self._healthy_list
        if not (healthy[s] and healthy[d]):
            self.dropped_unreachable += 1
            if self._obs is not None:
                self._m_dropped.inc()
            return False
        self._put(packet, s, d, self._n if network is _YX else 0)
        return True

    def _put(self, packet: Packet, src: int, dst: int, base: int) -> None:
        """Append one packet to the inbox (the only Packet-to-row map).

        ``base`` is the network's key offset (0 for XY, n for YX).
        """
        request_id = packet.request_id
        injected = packet.injected_cycle
        self._inbox.extend((
            src,
            dst,
            packet.kind is _RESPONSE,
            packet.packet_id,
            -1 if request_id is None else request_id,
            -1 if injected is None else injected,
            packet.address,
            src + base,
        ))
        self._inbox_payload.append(packet.payload)

    def _flush_inbox(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Copy the inbox into table rows; returns its ``(keys, rows)``."""
        payload = self._inbox_payload
        if not payload:
            return None
        count = len(payload)
        inbox = np.array(self._inbox, dtype=np.int64).reshape(count, _INBOX_WIDTH + 1)
        self._inbox = []
        self._inbox_payload = []
        table = self._table
        new = table.add(count)
        table.ints[:_INBOX_WIDTH, new] = inbox[:, :_INBOX_WIDTH].T
        table.payload[new] = payload
        return inbox[:, _INBOX_WIDTH], np.arange(new.start, new.stop, dtype=np.int64)

    def _stage_inbox(self) -> None:
        """Move inbox packets into the arrivals, keeping their order."""
        chunk = self._flush_inbox()
        if chunk is not None:
            self._arrivals.append(chunk)

    def _to_table(self, items) -> tuple[np.ndarray, np.ndarray]:
        """Copy ``(packet, network)`` pairs into table rows (cold paths)."""
        self._stage_inbox()
        cols = self._cols
        for packet, net in items:
            self._put(
                packet,
                packet.src[0] * cols + packet.src[1],
                packet.dst[0] * cols + packet.dst[1],
                self._n if net is _YX else 0,
            )
        chunk = self._flush_inbox()
        return chunk if chunk is not None else (_EMPTY_I64, _EMPTY_I64)

    def inject_many(self, src, dst, network: NetworkId) -> int:
        """Queue one cycle's REQUESTs straight into table rows.

        Same contract as the base method; no :class:`Packet` is built.
        """
        src, dst = self._check_tiles(src, dst)
        count = src.size
        if not count:
            return 0
        first = reserve_packet_ids(count)
        ids = np.arange(first, first + count, dtype=np.int64)
        healthy = self._mesh.healthy
        ok = healthy[src] & healthy[dst]
        if not ok.all():
            dropped = count - int(np.count_nonzero(ok))
            self.dropped_unreachable += dropped
            if self._obs is not None:
                self._m_dropped.inc(dropped)
            src, dst, ids = src[ok], dst[ok], ids[ok]
            count = src.size
            if not count:
                return 0
        self._stage_inbox()
        table = self._table
        new = table.add(count)
        table.src[new] = src
        table.dst[new] = dst
        table.packet_id[new] = ids
        keys = src + self._n if network is _YX else src
        self._arrivals.append((keys, np.arange(new.start, new.stop, dtype=np.int64)))
        return count

    def _release_due_responses(self) -> None:
        # Responses are scheduled in cycle order with a constant delay,
        # so the queue is sorted by due cycle.  Released responses join
        # the arrivals after the packets injected for this cycle: the
        # base class's admission order (backlog, injected, responses).
        responses = self._responses
        cycle = self.cycle
        if not responses or responses[0][0] > cycle:
            return
        self._stage_inbox()
        while responses and responses[0][0] <= cycle:
            _, keys, rows = responses.popleft()
            self._arrivals.append((keys, rows))

    def _try_local_injections(self) -> None:
        # Packets queued by a checkpoint restore are the oldest backlog;
        # those from dead sources drop here, as in every engine.
        if self._pending_injections:
            healthy = self._healthy_list
            cols = self._cols
            items = []
            for packet, net in self._pending_injections:
                if not healthy[packet.src[0] * cols + packet.src[1]]:
                    self.dropped_unreachable += 1
                    if self._obs is not None:
                        self._m_dropped.inc()
                    continue
                items.append((packet, net))
            self._pending_injections = []
            keys, rows = self._to_table(items)
            if rows.size:
                self._arrivals.insert(0, (keys, rows))
        self._stage_inbox()
        admitted: list[tuple[np.ndarray, int]] = []   # (rows, YX count)
        if self._backlog:
            self._admit_backlog(admitted)
        if self._arrivals:
            self._admit_arrivals(admitted)
        if admitted:
            self._book_admission(admitted)
        if self._obs is not None and self._backlog:
            self._m_inject_backpressure.inc(self._backlog)

    def _admit_backlog(self, admitted: list) -> None:
        """Move backlog heads into LOCAL FIFOs with free credit.

        Each key admits up to its free LOCAL slots from the head of its
        backlog, as the base class's ordered rescan does.
        """
        mesh = self._mesh
        depth = self.fifo_depth
        qlen_f = mesh.qlen_f
        bk_len = self._bk_len
        room = depth - qlen_f[self._local_lanes]
        keys = np.flatnonzero((bk_len > 0) & (room > 0))
        if not keys.size:
            return
        take = np.minimum(room[keys], bk_len[keys])
        lanes = keys * 5 + 4
        tail = mesh.head_f[lanes] + qlen_f[lanes]
        link = self._table.link
        head = self._bk_head
        buf_f = mesh.buf_f
        k, ln, tl, t = keys, lanes, tail, take
        cur = head[k]
        rows = []
        rank = 0
        while True:
            buf_f[ln * depth + (tl + rank) % depth] = cur
            rows.append(cur)
            nxt = link[cur]
            more = t > rank + 1
            if not more.all():
                done = ~more
                head[k[done]] = nxt[done]
                if not more.any():
                    break
                k, ln, tl, t, nxt = k[more], ln[more], tl[more], t[more], nxt[more]
            cur = nxt
            rank += 1
        qlen_f[lanes] += take.astype(np.int32)
        bk_len[keys] -= take
        self._backlog -= int(take.sum())
        admitted.append((
            np.concatenate(rows) if len(rows) > 1 else rows[0],
            int(take[keys >= self._n].sum()),
        ))

    def _admit_arrivals(self, admitted: list) -> None:
        """Admit this cycle's arrivals; the overflow joins the backlog.

        An arrival is admitted when its rank among its key's arrivals
        (arrival order) is below the key's free LOCAL credit.
        """
        arrivals = self._arrivals
        if len(arrivals) == 1:
            keys, rows = arrivals[0]
        else:
            keys = np.concatenate([k for k, _ in arrivals])
            rows = np.concatenate([r for _, r in arrivals])
        arrivals.clear()
        count = keys.size
        mesh = self._mesh
        depth = self.fifo_depth
        qlen_f = mesh.qlen_f
        lanes = self._local_lanes[keys]
        # The LOCAL FIFO slot each arrival would take.  A key still
        # holding backlog after _admit_backlog has a full LOCAL FIFO (it
        # took min(room, backlog)), so its arrivals see no room and
        # queue behind that backlog.
        slot = qlen_f[lanes]
        # Keys that repeat admit in arrival order: sort stably by key
        # and offset each arrival by its rank within its key.
        unique = count < 2 or len(set(keys.tolist())) == count
        if not unique:
            order = keys.argsort(kind="stable")
            keys, rows, lanes, slot = keys[order], rows[order], lanes[order], slot[order]
            first = np.empty(count, dtype=bool)
            first[0] = True
            np.not_equal(keys[1:], keys[:-1], out=first[1:])
            iota = np.arange(count)
            slot += iota - np.maximum.accumulate(np.where(first, iota, 0))
        ok = slot < depth
        if not ok.all():
            self._enqueue(keys[~ok], rows[~ok])
            keys, rows, lanes, slot = keys[ok], rows[ok], lanes[ok], slot[ok]
            if not rows.size:
                return
        mesh.buf_f[lanes * depth + (mesh.head_f[lanes] + slot) % depth] = rows
        if unique:
            qlen_f[lanes] += 1
        else:
            np.add.at(qlen_f, lanes, 1)
        admitted.append((rows, int(np.count_nonzero(keys >= self._n))))

    def _enqueue(self, keys: np.ndarray, rows: np.ndarray) -> None:
        """Append arrivals to their keys' backlogs, in order.

        Each key's arrivals must be adjacent (key-sorted, or one per key).
        """
        count = keys.size
        first = np.empty(count, dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        link = self._table.link
        inner = ~first[1:]
        link[rows[:-1][inner]] = rows[1:][inner]
        start = np.flatnonzero(first)
        stop = np.append(start[1:], count) - 1
        group = keys[start]
        had = self._bk_len[group] > 0
        link[self._bk_tail[group[had]]] = rows[start[had]]
        fresh = ~had
        self._bk_head[group[fresh]] = rows[start[fresh]]
        self._bk_tail[group] = rows[stop]
        self._bk_len[group] += stop - start + 1
        self._backlog += count

    def _book_admission(self, admitted: list) -> None:
        """Stamp injection cycles and count the admitted packets."""
        rows = np.concatenate([r for r, _ in admitted]) if len(admitted) > 1 else admitted[0][0]
        injected = self._table.injected
        injected[rows[injected[rows] < 0]] = self.cycle
        accepted = rows.size
        c_yx = sum(yx for _, yx in admitted)
        self.injected_count += accepted
        self._in_flight += accepted
        if c_yx:
            self._net_occupancy[NET_ORDER[1]] += c_yx
        if accepted - c_yx:
            self._net_occupancy[NET_ORDER[0]] += accepted - c_yx
        if self._obs is not None:
            self._m_injected.inc(accepted)

    def idle(self) -> bool:
        """True when no packet is queued, buffered or pending anywhere."""
        if (
            self._backlog
            or self._arrivals
            or self._inbox_payload
            or self._responses
            or self._pending_injections
        ):
            return False
        return self._in_flight == 0

    # ------------------------------------------------------------------
    # Per-cycle path

    def step(self) -> None:
        """Advance the simulation by one cycle (vectorized kernel)."""
        self._release_due_responses()
        if (
            self._pending_injections
            or self._inbox_payload
            or self._arrivals
            or self._backlog
        ):
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
                packets = self._table.packets(g_pid, cols)
                for v, o, i, packet in zip(
                    g_v.tolist(), g_out.tolist(), g_in.tolist(), packets
                ):
                    net = NET_ORDER[v // n]
                    for fn in self._chk_grant:
                        fn(self, net, divmod(v % n, cols), o, i, packet, (i + 1) % 5)
            if drop_pid.size:
                self._drop(drop_v, drop_pid)
            if deliver_pid.size:
                self._deliver_rows(deliver_v, deliver_pid)
                if self._obs is not None or self._chk_deliver is not None:
                    # Per-delivery hooks in delivery order, after the
                    # cycle's counters and responses are booked.
                    delivered = self.delivered_packets[-deliver_pid.size:]
                    for v, packet in zip(deliver_v.tolist(), delivered):
                        net = NET_ORDER[v // n]
                        if self._obs is not None:
                            self._record_delivery(packet, net)
                        if self._chk_deliver is not None:
                            for fn in self._chk_deliver:
                                fn(self, packet, net)

        self.link_stalls += stalled
        if self._obs is not None:
            self._record_step(moved, stalled)
        if self._chk_step is not None:
            for fn in self._chk_step:
                fn(self)
        self.cycle += 1

    def _drop(self, drop_v: np.ndarray, drop_rows: np.ndarray) -> None:
        """Packets granted into a dead link leave the network."""
        count = drop_rows.size
        self.dropped_unreachable += count
        self.dropped_in_flight += count
        self._in_flight -= count
        c_yx = count - int(np.searchsorted(drop_v, self._n))
        self._net_occupancy[NET_ORDER[0]] -= count - c_yx
        self._net_occupancy[NET_ORDER[1]] -= c_yx
        if self._chk_drop is not None:
            packets = self._table.packets(drop_rows, self._cols)
            for v, packet in zip(drop_v.tolist(), packets):
                for fn in self._chk_drop:
                    fn(self, packet, NET_ORDER[v // self._n])

    def _deliver_rows(self, deliver_v: np.ndarray, deliver_rows: np.ndarray) -> None:
        """Deliver a cycle's packets as array operations.

        Field-for-field what looping the base ``_deliver`` does: each
        row is stamped and logged, and every delivered REQUEST appends
        its RESPONSE (endpoints swapped, fresh ids in delivery order)
        for the complementary network.
        """
        table = self._table
        n = self._n
        cycle = self.cycle
        count = deliver_rows.size
        table.delivered[deliver_rows] = cycle
        self._delivered_rows.extend(deliver_rows.tolist())
        kind = table.kind[deliver_rows]
        requests = count - int(np.count_nonzero(kind))     # REQUEST is 0
        if requests:
            rows, v = deliver_rows, deliver_v
            if requests < count:
                is_request = kind == _REQUEST_KIND
                rows, v = rows[is_request], v[is_request]
            first = reserve_packet_ids(requests)
            # The response rows: fresh rows (not yet injected or
            # delivered) holding the requests' address and payload with
            # the endpoints swapped, kind RESPONSE and a fresh id linked
            # to the request's.
            new = table.add(requests)
            table.ints[_RESPONSE_TO, new] = table.ints[_RESPONSE_FROM, rows]
            table.kind[new] = _RESPONSE.value
            table.packet_id[new] = np.arange(first, first + requests)
            table.payload[new] = table.payload[rows]
            self._responses.append((
                cycle + self.response_delay,
                (v + n) % (2 * n),          # same tile, other network
                np.arange(new.start, new.stop, dtype=np.int64),
            ))
        # deliver_v ascends: XY deliveries first, then YX.
        c_xy = int(deliver_v.searchsorted(n))
        c_yx = count - c_xy
        self._in_flight -= count
        net_xy, net_yx = NET_ORDER
        if c_xy:
            self._per_network_delivered[net_xy] += c_xy
            self._net_occupancy[net_xy] -= c_xy
        if c_yx:
            self._per_network_delivered[net_yx] += c_yx
            self._net_occupancy[net_yx] -= c_yx

    def _delivery_stats(self) -> tuple[list[int], int, int]:
        order = np.array(self._delivered_rows, dtype=np.int64)
        table = self._table
        injected = table.injected[order]
        delivered = table.delivered[order]
        latency = delivered - injected
        known = (injected >= 0) & (delivered >= 0)
        if not known.all():
            latency = latency[known]
        responses = int(np.count_nonzero(table.kind[order]))
        return latency.tolist(), responses, order.size

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

    def _pending_injection_list(self) -> list:
        self._stage_inbox()
        n = self._n
        link = self._table.link
        rows: list[int] = []
        nets: list[NetworkId] = []
        for key in np.flatnonzero(self._bk_len).tolist():
            row = int(self._bk_head[key])
            for _ in range(int(self._bk_len[key])):
                rows.append(row)
                nets.append(NET_ORDER[key // n])
                row = int(link[row])
        for keys, chunk in self._arrivals:
            rows.extend(chunk.tolist())
            nets.extend(NET_ORDER[key // n] for key in keys.tolist())
        packets = self._table.packets(np.array(rows, dtype=np.int64), self._cols)
        items = list(zip(packets, nets))
        backlog = self._backlog
        return items[:backlog] + list(self._pending_injections) + items[backlog:]

    def _pending_response_list(self) -> list:
        n = self._n
        out = []
        for due, keys, rows in self._responses:
            packets = self._table.packets(rows, self._cols)
            for packet, key in zip(packets, keys.tolist()):
                out.append((due, packet, NET_ORDER[key // n]))
        return out

    def _set_pending_responses(self, responses: list) -> None:
        self._responses.clear()
        for due, group in itertools.groupby(responses, key=lambda item: item[0]):
            keys, rows = self._to_table((packet, net) for _, packet, net in group)
            self._responses.append((due, keys, rows))

    def _snapshot_engine_state(self) -> dict:
        mesh = self._mesh
        n = self._n
        fifos = [[[[] for _ in range(5)] for _ in range(n)] for _ in range(2)]
        places: list[list] = []
        rows: list[int] = []
        for lane in np.flatnonzero(mesh.qlen_f[:-1]).tolist():
            v, port = divmod(lane, 5)
            queue = mesh.fifo_rows(v, port)
            places.extend([fifos[v // n][v % n][port]] * len(queue))
            rows.extend(queue)
        packets = self._table.packets(np.array(rows, dtype=np.int64), self._cols)
        for place, packet in zip(places, packets):
            place.append(packet)
        rr = [
            mesh.rr[net_i * n:(net_i + 1) * n].tolist() for net_i in range(2)
        ]
        fwd = [
            mesh.fwd[net_i * n:(net_i + 1) * n].tolist() for net_i in range(2)
        ]
        return {"fifos": fifos, "rr": rr, "fwd": fwd}

    def _restore_engine_state(self, state: dict) -> None:
        mesh = self._mesh
        n = self._n
        items, lanes = [], []
        for net_i in range(2):
            for idx in range(n):
                if not mesh.healthy[idx]:
                    continue
                for port in range(5):
                    for packet in state["fifos"][net_i][idx][port]:
                        items.append((packet, NET_ORDER[net_i]))
                        lanes.append((net_i * n + idx, port))
            rows = slice(net_i * n, (net_i + 1) * n)
            mesh.rr[rows] = np.asarray(state["rr"][net_i], dtype=np.int8)
            mesh.fwd[rows] = np.asarray(state["fwd"][net_i], dtype=np.int64)
        _, table_rows = self._to_table(items)
        for (v, port), row in zip(lanes, table_rows.tolist()):
            mesh.push_port(v, port, row)
