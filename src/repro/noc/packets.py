"""Packet format of the waferscale network (paper Section VI).

The paper fixes the packet width at 100 bits, carried in one cycle on a
100-bit bus.  We adopt a concrete field layout consistent with the
system's sizes — it packs exactly into 100 bits for the 32x32 array:

===========  ====  ==========================================
field        bits  purpose
===========  ====  ==========================================
kind            1  request / response
src            10  source tile (1024 tiles)
dst            10  destination tile
address        15  word address within the tile's shared banks
payload        64  data payload (Table I bandwidth accounting)
===========  ====  ==========================================
"""

from __future__ import annotations

import enum
import gc
import itertools
from dataclasses import dataclass, field
from typing import Sequence

from ..config import Coord
from ..errors import NetworkError

KIND_BITS = 1
TILE_ID_BITS = 10
ADDRESS_BITS = 15
PAYLOAD_BITS = 64
PACKET_BITS = KIND_BITS + 2 * TILE_ID_BITS + ADDRESS_BITS + PAYLOAD_BITS

_packet_ids = itertools.count()


def ensure_packet_ids_above(value: int) -> None:
    """Advance the global packet-id counter past ``value`` if needed.

    Checkpoint restore materializes packets with their original ids; in
    a fresh process the counter would otherwise restart at zero and new
    packets (responses issued after resume) could collide with restored
    ones.  The counter only ever moves forward.
    """
    global _packet_ids
    current = next(_packet_ids)
    _packet_ids = itertools.count(max(current, value + 1))


def reserve_packet_ids(count: int) -> int:
    """Claim ``count`` consecutive packet ids as one block; returns the first.

    The ids are exactly those ``count`` default-constructed packets would
    have drawn one by one, so array producers (traffic schedules, the
    vector engine's responses) number packets the way the object model
    does.
    """
    global _packet_ids
    first = next(_packet_ids)
    _packet_ids = itertools.count(first + count)
    return first


class PacketKind(enum.Enum):
    """Request/response discriminator (drives network complementarity)."""

    REQUEST = 0
    RESPONSE = 1


#: Kinds by value, for building packets from a ``kind`` column.
_KINDS = tuple(PacketKind)


@dataclass(slots=True)
class Packet:
    """One network packet (one flit on a 100-bit bus).

    ``slots=True`` matters here: packets are the only per-unit-of-work
    allocation in the cycle-level simulator, and slotted instances cut
    both the per-packet memory (no ``__dict__``) and the attribute-load
    cost in the router hot loops.
    """

    kind: PacketKind
    src: Coord
    dst: Coord
    address: int = 0
    payload: int = 0
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    injected_cycle: int | None = None
    delivered_cycle: int | None = None
    request_id: int | None = None   # for responses: the request they answer

    def __post_init__(self) -> None:
        if not 0 <= self.address < (1 << ADDRESS_BITS):
            raise NetworkError(f"address {self.address} exceeds {ADDRESS_BITS} bits")
        if not 0 <= self.payload < (1 << PAYLOAD_BITS):
            raise NetworkError(f"payload exceeds {PAYLOAD_BITS} bits")

    @property
    def latency(self) -> int | None:
        """Injection-to-delivery latency in cycles, if delivered."""
        if self.injected_cycle is None or self.delivered_cycle is None:
            return None
        return self.delivered_cycle - self.injected_cycle

    def encode(self, cols: int) -> int:
        """Pack the packet into its 100-bit wire representation."""
        src_id = self.src[0] * cols + self.src[1]
        dst_id = self.dst[0] * cols + self.dst[1]
        if src_id >= (1 << TILE_ID_BITS) or dst_id >= (1 << TILE_ID_BITS):
            raise NetworkError("tile id exceeds field width")
        word = self.kind.value
        word = (word << TILE_ID_BITS) | src_id
        word = (word << TILE_ID_BITS) | dst_id
        word = (word << ADDRESS_BITS) | self.address
        word = (word << PAYLOAD_BITS) | self.payload
        return word

    @classmethod
    def decode(cls, word: int, cols: int) -> "Packet":
        """Unpack a 100-bit wire word back into a packet."""
        if word < 0 or word >= (1 << PACKET_BITS):
            raise NetworkError(f"wire word exceeds {PACKET_BITS} bits")
        payload = word & ((1 << PAYLOAD_BITS) - 1)
        word >>= PAYLOAD_BITS
        address = word & ((1 << ADDRESS_BITS) - 1)
        word >>= ADDRESS_BITS
        dst_id = word & ((1 << TILE_ID_BITS) - 1)
        word >>= TILE_ID_BITS
        src_id = word & ((1 << TILE_ID_BITS) - 1)
        word >>= TILE_ID_BITS
        kind = PacketKind(word & 1)
        return cls(
            kind=kind,
            src=(src_id // cols, src_id % cols),
            dst=(dst_id // cols, dst_id % cols),
            address=address,
            payload=payload,
        )


class gc_paused:
    """Pause the cyclic garbage collector around bulk packet allocation.

    Packets hold no reference cycles, but building tens of thousands of
    them triggers repeated full collector passes over the growing
    output, which then cost more than the construction itself.
    """

    def __enter__(self) -> None:
        self._collecting = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc) -> None:
        if self._collecting:
            gc.enable()


def materialise_packets(
    cols: int,
    src: Sequence[int],
    dst: Sequence[int],
    packet_id: Sequence[int],
    kind: Sequence[int] | None = None,
    request_id: Sequence[int] | None = None,
    injected: Sequence[int] | None = None,
    delivered: Sequence[int] | None = None,
    address: Sequence[int] | None = None,
    payload: Sequence[int] | None = None,
) -> list[Packet]:
    """Build :class:`Packet` objects from column arrays (or lists).

    ``src``/``dst`` are flat row-major tile indices and ``kind`` the
    :class:`PacketKind` value; in the optional cycle and id columns a
    negative entry means ``None``.  An omitted column means REQUEST,
    ``None`` or 0 (address, payload) throughout.  Construction is
    slot-direct, skipping ``__post_init__``: every column producer
    validated its fields on the way in.
    """
    count = len(src)
    columns = [
        [default] * count if column is None
        else column.tolist() if hasattr(column, "tolist")
        else column
        for column, default in (
            (kind, 0), (src, 0), (dst, 0), (packet_id, 0), (request_id, -1),
            (injected, -1), (delivered, -1), (address, 0), (payload, 0),
        )
    ]
    kinds = _KINDS
    new = object.__new__
    out: list[Packet] = []
    append = out.append
    with gc_paused():
        for k, s, d, pid, req, inj, dlv, addr, pay in zip(*columns):
            p = new(Packet)
            p.kind = kinds[k]
            p.src = divmod(s, cols)
            p.dst = divmod(d, cols)
            p.address = addr
            p.payload = pay
            p.packet_id = pid
            p.injected_cycle = None if inj < 0 else inj
            p.delivered_cycle = None if dlv < 0 else dlv
            p.request_id = None if req < 0 else req
            append(p)
    return out
