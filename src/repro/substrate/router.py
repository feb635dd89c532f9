"""The lightweight jog-free substrate router (paper Section VIII).

Commercial P&R tools could not hold a four-layer, >15,000mm^2 substrate in
memory, so the authors wrote a custom lightweight router supporting
jog-free routing only — sufficient because Si-IF inter-chiplet wiring is a
channel-routing problem: facing pad columns on neighbouring chiplets are
aligned by construction, so every net is a straight wire on one layer
across its channel.

This module reimplements that router:

* each net belongs to a **channel** (the gap between two adjacent chiplet
  edges, or the intra-tile compute/memory gap);
* a channel has ``edge_length x tracks_per_mm`` tracks per signal layer;
* *layer eligibility* comes from the pad column sets (Section VIII):
  essential nets land on pad columns nearest the die edge and route on
  signal layer 1; extended nets (three of the five memory banks) use the
  outer pad columns, whose escape must dive under the inner columns'
  wires, requiring signal layer 2;
* routing is a greedy, deterministic track assignment — jog-free wires
  cannot conflict except by exhausting tracks, so greedy is optimal here.
  A net's track is its rank, in netlist order, among the nets of its
  ``(channel, layer)``.  Everything but the track depends only on the
  ``(channel, layer)``, so it is computed once per channel and every
  wire's position is one array multiply-add;
* wires crossing a reticle boundary get the fattened stitch geometry
  (see :mod:`.stitching`).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from ..config import SystemConfig
from ..errors import RoutingError, SubstrateError
from ..geometry.reticle import ReticlePlan, plan_reticles
from ..geometry.wafer import WaferLayout
from .netlist import ChannelKind, InterChipletNet, Netlist, extract_netlist
from .stack import LayerStack, default_stack
from .stitching import stitch_geometry


@dataclass(frozen=True)
class RoutedWire:
    """One routed substrate wire."""

    net: InterChipletNet
    layer: int                  # signal layer index (1-based)
    track: int
    x0_mm: float
    y0_mm: float
    x1_mm: float
    y1_mm: float
    width_um: float
    space_um: float
    crosses_stitch: bool = False

    @property
    def length_mm(self) -> float:
        """Wire length (jog-free wires are axis-aligned)."""
        return abs(self.x1_mm - self.x0_mm) + abs(self.y1_mm - self.y0_mm)


@dataclass(frozen=True, eq=False)
class Wires:
    """Routed wires as columns, one row per wire, in netlist order.

    ``net`` indexes ``netlist``; the other columns are the
    :class:`RoutedWire` fields.  ``len``, indexing and iteration give
    :class:`RoutedWire` rows.
    """

    netlist: Netlist
    net: np.ndarray
    layer: np.ndarray
    track: np.ndarray
    x0_mm: np.ndarray
    y0_mm: np.ndarray
    x1_mm: np.ndarray
    y1_mm: np.ndarray
    width_um: np.ndarray
    space_um: np.ndarray
    crosses_stitch: np.ndarray

    def _columns(self) -> tuple[np.ndarray, ...]:
        return (self.layer, self.track, self.x0_mm, self.y0_mm, self.x1_mm,
                self.y1_mm, self.width_um, self.space_um, self.crosses_stitch)

    def __len__(self) -> int:
        return len(self.net)

    def __getitem__(self, i: int) -> RoutedWire:
        return RoutedWire(
            self.netlist[self.net[i].item()],
            *(column[i].item() for column in self._columns()),
        )

    def __iter__(self) -> Iterator[RoutedWire]:
        nets = self.netlist.take(self.net)
        for net, *row in zip(nets, *(c.tolist() for c in self._columns())):
            yield RoutedWire(net, *row)

    @property
    def length_mm(self) -> np.ndarray:
        """Per-wire length, as :attr:`RoutedWire.length_mm` computes it."""
        return np.abs(self.x1_mm - self.x0_mm) + np.abs(self.y1_mm - self.y0_mm)


@dataclass
class RoutingResult:
    """Outcome of a substrate routing pass."""

    config: SystemConfig
    signal_layers: int
    wires: Wires
    unrouted: Netlist
    channel_utilization: dict[tuple, float]

    @property
    def routed_count(self) -> int:
        """Number of successfully routed nets."""
        return len(self.wires)

    @property
    def success(self) -> bool:
        """True when every net routed."""
        return not len(self.unrouted)

    @property
    def total_wirelength_mm(self) -> float:
        """Sum of all routed wire lengths."""
        # Summed left to right like the per-wire loop, not pairwise as
        # ``np.sum`` would, so the float is the same to the last bit.
        return sum(self.wires.length_mm.tolist())

    @property
    def max_utilization(self) -> float:
        """Worst channel-layer track utilisation."""
        if not self.channel_utilization:
            return 0.0
        return max(self.channel_utilization.values())

    def stitch_wire_count(self) -> int:
        """Wires using the fattened reticle-stitch geometry."""
        return int(np.count_nonzero(self.wires.crosses_stitch))


class SubstrateRouter:
    """Greedy jog-free track router over the tile-grid channels."""

    def __init__(
        self,
        config: SystemConfig | None = None,
        stack: LayerStack | None = None,
        reticles: ReticlePlan | None = None,
    ):
        self.config = config or SystemConfig()
        self.stack = stack or default_stack(self.config.signal_layers)
        self.layout = WaferLayout(self.config)
        self.reticles = reticles or plan_reticles(self.config)
        if not self.stack.signal_layers:
            raise SubstrateError("stack has no signal layers")

    # -- channel geometry -------------------------------------------------

    # Corner keep-out at each end of a channel's track span, so tracks of
    # orthogonal channels can never meet at tile corners (caught by the
    # geometric DRC during development).
    CORNER_MARGIN_MM = 0.05

    def channel_capacity(self, channel: ChannelKind, layer: int) -> int:
        """Tracks available to one channel of a kind on one signal layer."""
        metal = self.stack.signal_layer(layer)
        if channel is ChannelKind.HORIZONTAL:
            edge_mm = self.config.compute_chiplet_h_mm
        else:
            edge_mm = self.config.compute_chiplet_w_mm
        usable_mm = max(edge_mm - 2 * self.CORNER_MARGIN_MM, 0.0)
        return int(usable_mm * metal.tracks_per_mm)

    def _layer_for(self, essential: bool) -> int | None:
        """The one signal layer a net may use, or None (pad-column-set rule)."""
        if essential:
            return 1
        return 2 if len(self.stack.signal_layers) >= 2 else None

    def eligible_layers(self, net: InterChipletNet) -> list[int]:
        """Signal layers a net may use (pad-column-set rule)."""
        layer = self._layer_for(net.essential)
        return [] if layer is None else [layer]

    def _wire_endpoints(
        self, net: InterChipletNet, track: int, layer: int
    ) -> tuple[float, float, float, float]:
        """Physical endpoints of a routed wire."""
        metal = self.stack.signal_layer(layer)
        pitch_mm = metal.pitch_um / 1000.0
        pa = self.layout.placement(net.tile_a)
        pb = self.layout.placement(net.tile_b)
        margin = self.CORNER_MARGIN_MM
        if net.channel is ChannelKind.HORIZONTAL:
            # Wire spans the gap between tile_a's east edge and tile_b's
            # west edge, at a vertical track position along the edge.
            x0 = pa.origin_x_mm + self.config.compute_chiplet_w_mm
            x1 = pb.origin_x_mm
            y = pa.origin_y_mm + margin + track * pitch_mm
            return (x0, y, x1, y)
        if net.channel is ChannelKind.VERTICAL:
            y0 = pa.origin_y_mm + self.config.tile_pitch_y_mm - self.config.inter_chiplet_spacing_mm
            y1 = pb.origin_y_mm
            x = pa.origin_x_mm + margin + track * pitch_mm
            return (x, y0, x, y1)
        # Intra-tile: compute south edge to memory north edge.
        y0 = pa.origin_y_mm + self.config.compute_chiplet_h_mm
        y1 = y0 + self.config.inter_chiplet_spacing_mm
        x = pa.origin_x_mm + margin + track * pitch_mm
        return (x, y0, x, y1)

    def _wire_style(
        self, net: InterChipletNet, layer: int
    ) -> tuple[bool, float, float]:
        """``(crosses_stitch, width_um, space_um)`` of ``net``'s wire on ``layer``."""
        crosses = net.tile_a != net.tile_b and self.reticles.crosses_boundary(
            net.tile_a, net.tile_b
        )
        if crosses:
            return (True, *stitch_geometry())
        metal = self.stack.signal_layer(layer)
        return (False, metal.min_width_um, metal.min_space_um)

    def _open_channel(self, net: InterChipletNet, layer: int) -> _Channel:
        """Routing state of ``net``'s channel on ``layer``, before any track."""
        crosses, width, space = self._wire_style(net, layer)
        # Track 0's endpoints hold the base ``origin + margin`` exactly, so
        # ``base + track * pitch`` is bit-identical to the per-net formula.
        x0, y0, x1, y1 = self._wire_endpoints(net, 0, layer)
        along_y = net.channel is ChannelKind.HORIZONTAL
        return _Channel(
            capacity=self.channel_capacity(net.channel, layer),
            crosses=crosses,
            width_um=width,
            space_um=space,
            pitch_mm=self.stack.signal_layer(layer).pitch_um / 1000.0,
            along_y=along_y,
            base_mm=y0 if along_y else x0,
            fixed_mm=(x0, x1) if along_y else (y0, y1),
        )

    # -- routing ----------------------------------------------------------

    def route(self, nets: Netlist | None = None) -> RoutingResult:
        """Route all nets; extended nets without a second layer stay unrouted.

        Raises :class:`RoutingError` only on *capacity* overflow of
        essential nets — missing layer 2 produces a degraded (but legal)
        result recorded in ``unrouted``.

        Greedy track assignment per ``(channel, layer)``: a net's track is
        its rank within its group (a stable sort by group, minus the
        group's start), and everything that depends only on the channel
        comes from one :class:`_Channel` record per group.
        """
        if nets is None:
            nets = extract_netlist(self.config)
        # Layer 0 marks a net with no eligible layer; the others are 1 or 2.
        essential = nets.essential
        layer = np.where(
            essential, self._layer_for(True) or 0, self._layer_for(False) or 0
        ).astype(np.int8)
        placed = np.flatnonzero(layer)
        group, track, first = _group_ranks(
            nets.channel_ids()[placed] * 4 + layer[placed]
        )
        first = placed[first]

        samples = [nets[i] for i in first.tolist()]
        group_layer = layer[first].tolist()
        channels = [
            self._open_channel(net, lay) for net, lay in zip(samples, group_layer)
        ]
        capacity = np.array([ch.capacity for ch in channels], dtype=np.int64)
        over = track >= capacity[group]
        overflow = placed[over]
        essential_overflow = overflow[essential[overflow]]
        if len(essential_overflow):
            raise RoutingError(
                f"essential net {nets.name(essential_overflow[0])} "
                "overflows channel capacity"
            )
        unrouted = layer == 0
        unrouted[overflow] = True
        routed = ~over
        placed, group, track = placed[routed], group[routed], track[routed]

        def per_wire(values: list, dtype: type) -> np.ndarray:
            return np.array(values, dtype=dtype)[group]

        pos = per_wire([ch.base_mm for ch in channels], float) + (
            track * per_wire([ch.pitch_mm for ch in channels], float)
        )
        along_y = per_wire([ch.along_y for ch in channels], bool)
        fixed_a = per_wire([ch.fixed_mm[0] for ch in channels], float)
        fixed_b = per_wire([ch.fixed_mm[1] for ch in channels], float)
        wires = Wires(
            netlist=nets,
            net=placed,
            layer=layer[placed],
            track=track,
            x0_mm=np.where(along_y, fixed_a, pos),
            y0_mm=np.where(along_y, pos, fixed_a),
            x1_mm=np.where(along_y, fixed_b, pos),
            y1_mm=np.where(along_y, pos, fixed_b),
            width_um=per_wire([ch.width_um for ch in channels], float),
            space_um=per_wire([ch.space_um for ch in channels], float),
            crosses_stitch=per_wire([ch.crosses for ch in channels], bool),
        )
        # First-use order: groups by their first net; empty groups drop out.
        used = np.bincount(group, minlength=len(channels)).tolist()
        utilization = {}
        for g in np.argsort(first, kind="stable").tolist():
            if used[g]:
                key = (samples[g].channel_key(), group_layer[g])
                utilization[key] = used[g] / channels[g].capacity
        return RoutingResult(
            config=self.config,
            signal_layers=len(self.stack.signal_layers),
            wires=wires,
            unrouted=nets.take(np.flatnonzero(unrouted)),
            channel_utilization=utilization,
        )


def _group_ranks(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group each position by its key.

    Returns each position's group id (groups numbered in key order), its
    rank among the positions of its group in input order, and each
    group's first position.
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.diff(sorted_keys, prepend=sorted_keys[:1] - 1))
    del sorted_keys
    sorted_group = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(keys)))
    group = np.empty_like(sorted_group)
    group[order] = sorted_group
    rank = np.empty_like(sorted_group)
    rank[order] = np.arange(len(keys)) - starts[sorted_group]
    return group, rank, order[starts]


@dataclass(slots=True)
class _Channel:
    """Capacity and fixed geometry of one ``(channel, layer)``."""

    capacity: int
    crosses: bool
    width_um: float
    space_um: float
    pitch_mm: float
    along_y: bool                   # tracks step in y (horizontal channel)
    base_mm: float                  # track-0 position: origin + margin
    fixed_mm: tuple[float, float]   # the wire's two ends on the other axis


def _route_per_net(
    router: SubstrateRouter, nets: Iterable[InterChipletNet]
) -> tuple[list[RoutedWire], list[InterChipletNet], dict[tuple, float]]:
    """Per-net greedy routing that recomputes all channel state (test oracle).

    The original formulation of :meth:`SubstrateRouter.route`: capacity,
    reticle crossing, wire geometry and endpoints are derived afresh for
    every net.  Returns ``(wires, unrouted, channel_utilization)``, which
    ``route`` must match row for row.
    """
    wires: list[RoutedWire] = []
    unrouted: list[InterChipletNet] = []
    next_track: dict[tuple, int] = {}

    for net in nets:
        layers = router.eligible_layers(net)
        if not layers:
            unrouted.append(net)
            continue
        placed = False
        for layer in layers:
            key = (net.channel_key(), layer)
            track = next_track.get(key, 0)
            capacity = router.channel_capacity(net.channel, layer)
            if track >= capacity:
                continue
            next_track[key] = track + 1
            crosses, width, space = router._wire_style(net, layer)
            x0, y0, x1, y1 = router._wire_endpoints(net, track, layer)
            wires.append(
                RoutedWire(
                    net=net,
                    layer=layer,
                    track=track,
                    x0_mm=x0,
                    y0_mm=y0,
                    x1_mm=x1,
                    y1_mm=y1,
                    width_um=width,
                    space_um=space,
                    crosses_stitch=crosses,
                )
            )
            placed = True
            break
        if not placed:
            if net.essential:
                raise RoutingError(
                    f"essential net {net.name} overflows channel capacity"
                )
            unrouted.append(net)

    # Utilisation bookkeeping: one pass, remembering each key's first net.
    counts: dict[tuple, int] = {}
    samples: dict[tuple, InterChipletNet] = {}
    for wire in wires:
        key = (wire.net.channel_key(), wire.layer)
        if key not in counts:
            samples[key] = wire.net
        counts[key] = counts.get(key, 0) + 1
    utilization = {
        key: used / router.channel_capacity(samples[key].channel, key[1])
        for key, used in counts.items()
    }
    return wires, unrouted, utilization
