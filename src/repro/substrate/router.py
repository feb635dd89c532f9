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
  Everything but the track depends only on the ``(channel, layer)``, so
  it is computed once per channel and each net is a multiply-add;
* wires crossing a reticle boundary get the fattened stitch geometry
  (see :mod:`.stitching`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import SystemConfig
from ..errors import RoutingError, SubstrateError
from ..geometry.reticle import ReticlePlan, plan_reticles
from ..geometry.wafer import WaferLayout
from .netlist import ChannelKind, InterChipletNet, extract_netlist
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


@dataclass
class RoutingResult:
    """Outcome of a substrate routing pass."""

    config: SystemConfig
    signal_layers: int
    wires: list[RoutedWire] = field(default_factory=list)
    unrouted: list[InterChipletNet] = field(default_factory=list)
    channel_utilization: dict[tuple, float] = field(default_factory=dict)

    @property
    def routed_count(self) -> int:
        """Number of successfully routed nets."""
        return len(self.wires)

    @property
    def success(self) -> bool:
        """True when every net routed."""
        return not self.unrouted

    @property
    def total_wirelength_mm(self) -> float:
        """Sum of all routed wire lengths."""
        return sum(w.length_mm for w in self.wires)

    @property
    def max_utilization(self) -> float:
        """Worst channel-layer track utilisation."""
        if not self.channel_utilization:
            return 0.0
        return max(self.channel_utilization.values())

    def stitch_wire_count(self) -> int:
        """Wires using the fattened reticle-stitch geometry."""
        return sum(1 for w in self.wires if w.crosses_stitch)


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

    def channel_capacity(self, net: InterChipletNet, layer: int) -> int:
        """Tracks available to one channel on one signal layer."""
        metal = self.stack.signal_layer(layer)
        if net.channel is ChannelKind.HORIZONTAL:
            edge_mm = self.config.compute_chiplet_h_mm
        elif net.channel is ChannelKind.VERTICAL:
            edge_mm = self.config.compute_chiplet_w_mm
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
            capacity=self.channel_capacity(net, layer),
            crosses=crosses,
            width_um=width,
            space_um=space,
            pitch_mm=self.stack.signal_layer(layer).pitch_um / 1000.0,
            along_y=along_y,
            base_mm=y0 if along_y else x0,
            fixed_mm=(x0, x1) if along_y else (y0, y1),
        )

    # -- routing ----------------------------------------------------------

    def route(self, nets: list[InterChipletNet] | None = None) -> RoutingResult:
        """Route all nets; extended nets without a second layer stay unrouted.

        Raises :class:`RoutingError` only on *capacity* overflow of
        essential nets — missing layer 2 produces a degraded (but legal)
        result recorded in ``unrouted``.

        Greedy track assignment per ``(channel, layer)``: everything that
        depends only on the channel lives in one :class:`_Channel` record,
        so each net costs one dict lookup, one multiply-add and one
        :class:`RoutedWire`.
        """
        if nets is None:
            nets = extract_netlist(self.config)
        result = RoutingResult(
            config=self.config, signal_layers=len(self.stack.signal_layers)
        )
        wires, unrouted = result.wires, result.unrouted
        layer_of = (self._layer_for(False), self._layer_for(True))  # [essential]
        channels: dict[tuple, _Channel] = {}

        for net in nets:
            essential = net.essential
            layer = layer_of[essential]
            if layer is None:
                unrouted.append(net)
                continue
            key = (net.channel_key(), layer)
            channel = channels.get(key)
            if channel is None:
                channel = channels[key] = self._open_channel(net, layer)
            track = channel.next_track
            if track >= channel.capacity:
                if essential:
                    raise RoutingError(
                        f"essential net {net.name} overflows channel capacity"
                    )
                unrouted.append(net)
                continue
            channel.next_track = track + 1
            pos = channel.base_mm + track * channel.pitch_mm
            a, b = channel.fixed_mm
            if channel.along_y:
                x0, y0, x1, y1 = a, pos, b, pos
            else:
                x0, y0, x1, y1 = pos, a, pos, b
            wires.append(
                RoutedWire(
                    net, layer, track, x0, y0, x1, y1,
                    channel.width_um, channel.space_um, channel.crosses,
                )
            )

        result.channel_utilization = {
            key: channel.next_track / channel.capacity
            for key, channel in channels.items()
            if channel.next_track
        }
        return result


@dataclass(slots=True)
class _Channel:
    """Track counter and fixed geometry of one ``(channel, layer)``."""

    capacity: int
    crosses: bool
    width_um: float
    space_um: float
    pitch_mm: float
    along_y: bool                   # tracks step in y (horizontal channel)
    base_mm: float                  # track-0 position: origin + margin
    fixed_mm: tuple[float, float]   # the wire's two ends on the other axis
    next_track: int = 0


def _route_per_net(
    router: SubstrateRouter, nets: list[InterChipletNet]
) -> RoutingResult:
    """Per-net greedy routing that recomputes all channel state (test oracle).

    The original formulation of :meth:`SubstrateRouter.route`: capacity,
    reticle crossing, wire geometry and endpoints are derived afresh for
    every net.  ``route`` must agree with it field for field.
    """
    result = RoutingResult(
        config=router.config, signal_layers=len(router.stack.signal_layers)
    )
    next_track: dict[tuple, int] = {}

    for net in nets:
        layers = router.eligible_layers(net)
        if not layers:
            result.unrouted.append(net)
            continue
        placed = False
        for layer in layers:
            key = (net.channel_key(), layer)
            track = next_track.get(key, 0)
            capacity = router.channel_capacity(net, layer)
            if track >= capacity:
                continue
            next_track[key] = track + 1
            crosses, width, space = router._wire_style(net, layer)
            x0, y0, x1, y1 = router._wire_endpoints(net, track, layer)
            result.wires.append(
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
            result.unrouted.append(net)

    # Utilisation bookkeeping: one pass, remembering each key's first net.
    counts: dict[tuple, int] = {}
    samples: dict[tuple, InterChipletNet] = {}
    for wire in result.wires:
        key = (wire.net.channel_key(), wire.layer)
        if key not in counts:
            samples[key] = wire.net
        counts[key] = counts.get(key, 0) + 1
    for key, used in counts.items():
        capacity = router.channel_capacity(samples[key], key[1])
        result.channel_utilization[key] = used / capacity
    return result
