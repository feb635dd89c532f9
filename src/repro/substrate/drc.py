"""Design-rule checks over a routed substrate (paper Section VIII).

The lightweight router's companion: verifies width/space minima per layer,
no two wires on the same (channel, layer, track), every wire a straight
positive-length segment, and the constant-pitch stitch rule.  The checks
are structural rather than polygon-level — appropriate for a jog-free
channel router whose geometry is fully determined by (channel, layer,
track).  They run over the :class:`~.router.Wires` columns; a
:class:`DrcViolation` (and its net name) is built only for a wire that
breaks a rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .router import RoutedWire, RoutingResult
from .stack import LayerStack, MetalLayer, default_stack
from .stitching import intra_reticle_geometry, stitch_geometry


@dataclass(frozen=True)
class DrcViolation:
    """One design-rule violation."""

    rule: str
    message: str
    wire_name: str


@dataclass
class DrcReport:
    """All violations found in one run."""

    violations: list[DrcViolation] = field(default_factory=list)
    wires_checked: int = 0

    @property
    def clean(self) -> bool:
        """True when no rule fired."""
        return not self.violations

    def by_rule(self) -> dict[str, int]:
        """Violation counts per rule."""
        out: dict[str, int] = {}
        for v in self.violations:
            out[v.rule] = out.get(v.rule, 0) + 1
        return out


RULES = (
    "min-width",
    "stitch-geometry",
    "constant-pitch",
    "track-overlap",
    "degenerate-geometry",
)


def _message(rule: str, wire: RoutedWire, metal: MetalLayer, owner: str) -> str:
    """Why ``wire`` breaks ``rule``; ``owner`` first held its track."""
    if rule == "min-width":
        return f"width {wire.width_um}um < {metal.min_width_um}um on {metal.name}"
    if rule == "stitch-geometry":
        expected = stitch_geometry() if wire.crosses_stitch else intra_reticle_geometry()
        return (
            f"geometry ({wire.width_um}, {wire.space_um}) != expected {expected} "
            f"for {'stitch' if wire.crosses_stitch else 'intra'} wire"
        )
    if rule == "constant-pitch":
        return (
            f"wire pitch {wire.width_um + wire.space_um}um != "
            f"layer pitch {metal.pitch_um}um"
        )
    if rule == "track-overlap":
        return f"track shared with {owner}"
    return "not a positive-length jog-free segment"


def run_drc(result: RoutingResult, stack: LayerStack | None = None) -> DrcReport:
    """Check a routing result against the substrate rules."""
    stack = stack or default_stack(result.signal_layers)
    wires = result.wires
    metals = {layer: stack.signal_layer(layer) for layer in np.unique(wires.layer).tolist()}
    layers = max(metals, default=0) + 1

    def per_layer(attr: str) -> np.ndarray:
        table = np.zeros(layers)
        for layer, metal in metals.items():
            table[layer] = getattr(metal, attr)
        return table[wires.layer]

    width, space, crosses = wires.width_um, wires.space_um, wires.crosses_stitch
    intra_w, intra_s = intra_reticle_geometry()
    stitch_w, stitch_s = stitch_geometry()
    # One integer per (channel, layer, track); a wire whose key first
    # appeared at an earlier wire shares that wire's track.
    low = int(wires.track.min(initial=0))
    span = int(wires.track.max(initial=0)) - low + 1
    channel = wires.netlist.channel_ids()[wires.net]
    track_key = (channel * layers + wires.layer) * span + (wires.track - low)
    del channel
    _, first, inverse = np.unique(track_key, return_index=True, return_inverse=True)
    owner = first[inverse]
    del track_key, inverse
    dx, dy = wires.x1_mm - wires.x0_mm, wires.y1_mm - wires.y0_mm
    fired = (
        (width < per_layer("min_width_um")) & ~crosses,
        (width != np.where(crosses, stitch_w, intra_w))
        | (space != np.where(crosses, stitch_s, intra_s)),
        np.abs((width + space) - per_layer("pitch_um")) > 1e-9,
        owner != np.arange(len(wires)),
        ~(((dx > 0) & (dy == 0)) | ((dy > 0) & (dx == 0))),
    )

    report = DrcReport(wires_checked=len(wires))
    for i in np.flatnonzero(np.logical_or.reduce(fired)).tolist():
        wire = wires[i]
        for rule, mask in zip(RULES, fired):
            if mask[i]:
                report.violations.append(DrcViolation(
                    rule=rule,
                    message=_message(
                        rule, wire, metals[wire.layer],
                        wires.netlist.name(wires.net[owner[i]].item()),
                    ),
                    wire_name=wire.net.name,
                ))
    return report


def _drc_per_wire(result: RoutingResult, stack: LayerStack | None = None) -> DrcReport:
    """Wire-by-wire formulation of :func:`run_drc` (test oracle).

    Reads each wire as a :class:`RoutedWire` and checks it against every
    rule in turn; ``run_drc`` must report the same violations in the same
    order.
    """
    stack = stack or default_stack(result.signal_layers)
    report = DrcReport()
    occupied: dict[tuple, str] = {}
    intra = intra_reticle_geometry()
    stitch = stitch_geometry()

    for wire in result.wires:
        report.wires_checked += 1
        metal = stack.signal_layer(wire.layer)
        key = (wire.net.channel_key(), wire.layer, wire.track)
        owner = occupied.get(key)
        if owner is None:
            occupied[key] = wire.net.name
        dx, dy = wire.x1_mm - wire.x0_mm, wire.y1_mm - wire.y0_mm
        fired = (
            wire.width_um < metal.min_width_um and not wire.crosses_stitch,
            (wire.width_um, wire.space_um) != (stitch if wire.crosses_stitch else intra),
            abs((wire.width_um + wire.space_um) - metal.pitch_um) > 1e-9,
            owner is not None,
            not ((dx > 0 and dy == 0) or (dy > 0 and dx == 0)),
        )
        for rule, hit in zip(RULES, fired):
            if hit:
                report.violations.append(DrcViolation(
                    rule=rule,
                    message=_message(rule, wire, metal, owner),
                    wire_name=wire.net.name,
                ))
    return report
