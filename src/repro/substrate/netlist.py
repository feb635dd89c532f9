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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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


def extract_netlist(config: SystemConfig | None = None) -> list[InterChipletNet]:
    """Extract every substrate signal net for a configuration.

    Warning: the full 32x32 wafer yields ~1.05M nets; reduced configs are
    recommended for interactive exploration.
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
