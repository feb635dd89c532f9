"""Inter-chiplet net extraction (paper Sections II, VI, VIII).

The substrate's signal nets come from three sources:

* **mesh links** — 400 nets per adjacent tile pair, in both the horizontal
  (east-west) and vertical (north-south) directions; vertical links pass
  through the memory chiplet's buffered feedthroughs;
* **intra-tile nets** — the compute-to-memory chiplet interface (bank
  buses) within each tile;
* **edge fan-out nets** — I/Os of boundary tiles running to the wafer-edge
  connector pads (handled in :mod:`.fanout`).

Each net carries its :class:`NetClass`, which determines its column set on
the pad ring and therefore the routing layer it may use (essential nets
must be routable with a single signal layer — Section VIII).

Every net is a step-and-repeat of one per-tile pattern, so the netlist is
held as integer columns (:class:`Netlist`), one row per net; a row becomes
an :class:`InterChipletNet` only when it is read.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..config import Coord, SystemConfig


class NetClass(enum.Enum):
    """Functional class of a substrate net (drives layer eligibility)."""

    MESH_LINK = "mesh_link"             # essential: inter-tile network
    BANK_ESSENTIAL = "bank_essential"   # banks 0-1 interface (essential)
    BANK_EXTENDED = "bank_extended"     # banks 2-4 interface (layer 2 only)
    CLOCK = "clock"                     # forwarded clock (essential)
    TEST = "test"                       # JTAG chain hop (essential)


ESSENTIAL_CLASSES = frozenset(
    {NetClass.MESH_LINK, NetClass.BANK_ESSENTIAL, NetClass.CLOCK, NetClass.TEST}
)


class ChannelKind(enum.Enum):
    """Where a net physically runs."""

    HORIZONTAL = "horizontal"   # between east-west adjacent tiles
    VERTICAL = "vertical"       # between north-south adjacent tiles
    INTRA_TILE = "intra_tile"   # compute <-> memory chiplet within a tile


#: Code -> value of the :class:`Netlist` ``net_class`` and ``channel`` columns.
NET_CLASSES = tuple(NetClass)
CHANNEL_KINDS = tuple(ChannelKind)
_ESSENTIAL_CODES = [NET_CLASSES.index(c) for c in ESSENTIAL_CLASSES]


@dataclass(frozen=True)
class InterChipletNet:
    """One substrate signal net."""

    name: str
    net_class: NetClass
    channel: ChannelKind
    tile_a: Coord
    tile_b: Coord               # == tile_a for intra-tile nets
    bit_index: int

    @property
    def essential(self) -> bool:
        """Must this net exist in the single-layer degraded system?"""
        return self.net_class in ESSENTIAL_CLASSES

    def channel_key(self) -> tuple:
        """Hashable identity of the routing channel this net occupies."""
        return (self.channel, self.tile_a, self.tile_b)


def _bank_nets_per_bank(config: SystemConfig) -> int:
    """Signals per memory bank interface (matches :mod:`repro.io.budget`)."""
    return 32 + 15 + 4


def _first_bit(net_class: NetClass, config: SystemConfig) -> int:
    """``bit_index`` of a link's first net of ``net_class``: clock and JTAG
    nets are numbered after the link's data bits."""
    if net_class is NetClass.CLOCK:
        return config.link_width_bits
    if net_class is NetClass.TEST:
        return config.link_width_bits + 2
    return 0


@dataclass(frozen=True, eq=False)
class Netlist:
    """Every substrate signal net as integer columns, one row per net.

    ``net_class`` and ``channel`` hold indices into :data:`NET_CLASSES` and
    :data:`CHANNEL_KINDS`; ``row_a``/``col_a`` and ``row_b``/``col_b`` are
    the two tiles and ``bit`` the ``bit_index``.  ``len``, indexing and
    iteration give :class:`InterChipletNet` rows, named on demand.
    """

    config: SystemConfig
    net_class: np.ndarray
    channel: np.ndarray
    row_a: np.ndarray
    col_a: np.ndarray
    row_b: np.ndarray
    col_b: np.ndarray
    bit: np.ndarray

    def _columns(self) -> tuple[np.ndarray, ...]:
        return (self.net_class, self.channel, self.row_a, self.col_a,
                self.row_b, self.col_b, self.bit)

    def __len__(self) -> int:
        return len(self.bit)

    def __getitem__(self, i: int) -> InterChipletNet:
        return self._net(*(column[i].item() for column in self._columns()))

    def __iter__(self) -> Iterator[InterChipletNet]:
        for row in zip(*(column.tolist() for column in self._columns())):
            yield self._net(*row)

    def _net(self, cls: int, kind: int, ra: int, ca: int, rb: int, cb: int,
             bit: int) -> InterChipletNet:
        net_class, channel = NET_CLASSES[cls], CHANNEL_KINDS[kind]
        return InterChipletNet(
            name=self._name(net_class, channel, ra, ca, bit),
            net_class=net_class,
            channel=channel,
            tile_a=(ra, ca),
            tile_b=(rb, cb),
            bit_index=bit,
        )

    def _name(self, net_class: NetClass, channel: ChannelKind, r: int, c: int,
              bit: int) -> str:
        tag = "h" if channel is ChannelKind.HORIZONTAL else "v"
        offset = bit - _first_bit(net_class, self.config)
        if net_class is NetClass.MESH_LINK:
            return f"mesh_{tag}_{r}_{c}_{offset}"
        if net_class is NetClass.CLOCK:
            return f"clk_{tag}_{r}_{c}_{offset}"
        if net_class is NetClass.TEST:
            return f"jtag_{r}_{c}_{offset}"
        bank, bank_bit = divmod(bit, _bank_nets_per_bank(self.config))
        return f"bank_{r}_{c}_{bank}_{bank_bit}"

    def name(self, i: int) -> str:
        """Name of net ``i``."""
        return self[i].name

    @property
    def essential(self) -> np.ndarray:
        """Per-net flag: must the net exist in the single-layer system?"""
        return np.isin(self.net_class, _ESSENTIAL_CODES)

    def channel_ids(self) -> np.ndarray:
        """Per-net integer identity of :meth:`InterChipletNet.channel_key`."""
        tiles, cols = self.config.tiles, self.config.cols
        tile_a = self.row_a.astype(np.int64) * cols + self.col_a
        tile_b = self.row_b.astype(np.int64) * cols + self.col_b
        return (self.channel.astype(np.int64) * tiles + tile_a) * tiles + tile_b

    def take(self, index: np.ndarray) -> Netlist:
        """The sub-netlist of rows ``index``, in that order."""
        return Netlist(self.config, *(column[index] for column in self._columns()))


# Tile offset from tile_a to tile_b for each channel kind.
_STEP = {
    ChannelKind.HORIZONTAL: (0, 1),
    ChannelKind.VERTICAL: (1, 0),
    ChannelKind.INTRA_TILE: (0, 0),
}


def _link_nets(
    cfg: SystemConfig, kinds: tuple[ChannelKind, ...], width: int,
    net_class: NetClass,
) -> list[np.ndarray]:
    """``width`` nets per channel of ``kinds`` leaving each tile.

    Channels come in row-major tile order, ``kinds`` in the given order
    within a tile; a net's bit counts up from :func:`_first_bit`.
    """
    tile = np.arange(cfg.tiles, dtype=np.int32)
    row, col = (tile // cfg.cols)[:, None], (tile % cfg.cols)[:, None]
    step = np.array([_STEP[k] for k in kinds], dtype=np.int32)
    row_b, col_b = row + step[:, 0], col + step[:, 1]
    keep = (row_b < cfg.rows) & (col_b < cfg.cols)
    kind = np.array([CHANNEL_KINDS.index(k) for k in kinds], dtype=np.int8)
    channels = [
        np.broadcast_to(column, keep.shape)[keep]
        for column in (kind, row, col, row_b, col_b)
    ]
    first = _first_bit(net_class, cfg)
    bit = np.tile(np.arange(first, first + width, dtype=np.int32), len(channels[0]))
    cls = np.full(len(bit), NET_CLASSES.index(net_class), dtype=np.int8)
    return [cls, *(np.repeat(column, width) for column in channels), bit]


def extract_netlist(config: SystemConfig | None = None) -> Netlist:
    """Extract every substrate signal net for a configuration.

    Row order: mesh links, then bank interfaces, clocks and JTAG hops,
    each in row-major tile order (the order :func:`_netlist_per_net`
    appends them in).
    """
    cfg = config or SystemConfig()
    per_bank = _bank_nets_per_bank(cfg)
    essential_banks = 2     # banks reachable with a single routing layer
    both = (ChannelKind.HORIZONTAL, ChannelKind.VERTICAL)
    parts = [
        _link_nets(cfg, both, cfg.link_width_bits, NetClass.MESH_LINK),
        _link_nets(cfg, (ChannelKind.INTRA_TILE,),
                   cfg.memory_banks_per_tile * per_bank, NetClass.BANK_ESSENTIAL),
        _link_nets(cfg, both, 2, NetClass.CLOCK),   # fwd + reverse
        _link_nets(cfg, (ChannelKind.HORIZONTAL,), 4, NetClass.TEST),
    ]
    bank_cls, bank_bit = parts[1][0], parts[1][-1]
    bank_cls[bank_bit >= essential_banks * per_bank] = NET_CLASSES.index(
        NetClass.BANK_EXTENDED
    )
    return Netlist(cfg, *(np.concatenate(columns) for columns in zip(*parts)))


def _netlist_per_net(config: SystemConfig | None = None) -> list[InterChipletNet]:
    """Every net as one object, built tile by tile (test oracle).

    The original formulation of :func:`extract_netlist`, which must agree
    with it row for row.
    """
    cfg = config or SystemConfig()
    nets: list[InterChipletNet] = []

    # Mesh links between adjacent tiles.
    for r in range(cfg.rows):
        for c in range(cfg.cols):
            if c + 1 < cfg.cols:
                for bit in range(cfg.link_width_bits):
                    nets.append(
                        InterChipletNet(
                            name=f"mesh_h_{r}_{c}_{bit}",
                            net_class=NetClass.MESH_LINK,
                            channel=ChannelKind.HORIZONTAL,
                            tile_a=(r, c),
                            tile_b=(r, c + 1),
                            bit_index=bit,
                        )
                    )
            if r + 1 < cfg.rows:
                for bit in range(cfg.link_width_bits):
                    nets.append(
                        InterChipletNet(
                            name=f"mesh_v_{r}_{c}_{bit}",
                            net_class=NetClass.MESH_LINK,
                            channel=ChannelKind.VERTICAL,
                            tile_a=(r, c),
                            tile_b=(r + 1, c),
                            bit_index=bit,
                        )
                    )

    # Intra-tile compute <-> memory bank interfaces.
    per_bank = _bank_nets_per_bank(cfg)
    essential_banks = 2     # banks reachable with a single routing layer
    for coord in cfg.tile_coords():
        r, c = coord
        for bank in range(cfg.memory_banks_per_tile):
            net_class = (
                NetClass.BANK_ESSENTIAL
                if bank < essential_banks
                else NetClass.BANK_EXTENDED
            )
            for bit in range(per_bank):
                nets.append(
                    InterChipletNet(
                        name=f"bank_{r}_{c}_{bank}_{bit}",
                        net_class=net_class,
                        channel=ChannelKind.INTRA_TILE,
                        tile_a=coord,
                        tile_b=coord,
                        bit_index=bank * per_bank + bit,
                    )
                )

    # Forwarded clock: one net per adjacent tile pair per direction.
    for r in range(cfg.rows):
        for c in range(cfg.cols):
            for dr, dc, tag in ((0, 1, "h"), (1, 0, "v")):
                rr, cc = r + dr, c + dc
                if rr < cfg.rows and cc < cfg.cols:
                    channel = (
                        ChannelKind.HORIZONTAL if tag == "h" else ChannelKind.VERTICAL
                    )
                    for direction in range(2):      # fwd + reverse
                        nets.append(
                            InterChipletNet(
                                name=f"clk_{tag}_{r}_{c}_{direction}",
                                net_class=NetClass.CLOCK,
                                channel=channel,
                                tile_a=(r, c),
                                tile_b=(rr, cc),
                                bit_index=cfg.link_width_bits + direction,
                            )
                        )

    # JTAG row chains: TDI/TDO/TMS/TCK hop between row-adjacent tiles.
    for r in range(cfg.rows):
        for c in range(cfg.cols - 1):
            for bit in range(4):
                nets.append(
                    InterChipletNet(
                        name=f"jtag_{r}_{c}_{bit}",
                        net_class=NetClass.TEST,
                        channel=ChannelKind.HORIZONTAL,
                        tile_a=(r, c),
                        tile_b=(r, c + 1),
                        bit_index=cfg.link_width_bits + 2 + bit,
                    )
                )

    return nets
