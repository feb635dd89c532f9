"""Design-rule checks over a routed substrate (paper Section VIII).

The lightweight router's companion: verifies width/space minima per layer,
no two wires on the same (channel, layer, track), wires confined to their
channels, and the constant-pitch stitch rule.  The checks are structural
rather than polygon-level — appropriate for a jog-free channel router
whose geometry is fully determined by (channel, layer, track).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .router import RoutedWire, RoutingResult
from .stack import LayerStack, default_stack
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


def run_drc(result: RoutingResult, stack: LayerStack | None = None) -> DrcReport:
    """Check a routing result against the substrate rules."""
    stack = stack or default_stack(result.signal_layers)
    report = DrcReport()
    occupied: dict[tuple, str] = {}
    intra_w, intra_s = intra_reticle_geometry()
    stitch_w, stitch_s = stitch_geometry()

    for wire in result.wires:
        report.wires_checked += 1
        metal = stack.signal_layer(wire.layer)

        if wire.width_um < metal.min_width_um and not wire.crosses_stitch:
            report.violations.append(
                DrcViolation(
                    rule="min-width",
                    message=(
                        f"width {wire.width_um}um < {metal.min_width_um}um "
                        f"on {metal.name}"
                    ),
                    wire_name=wire.net.name,
                )
            )

        expected = (stitch_w, stitch_s) if wire.crosses_stitch else (intra_w, intra_s)
        if (wire.width_um, wire.space_um) != expected:
            report.violations.append(
                DrcViolation(
                    rule="stitch-geometry",
                    message=(
                        f"geometry ({wire.width_um}, {wire.space_um}) != "
                        f"expected {expected} for "
                        f"{'stitch' if wire.crosses_stitch else 'intra'} wire"
                    ),
                    wire_name=wire.net.name,
                )
            )

        if abs((wire.width_um + wire.space_um) - metal.pitch_um) > 1e-9:
            report.violations.append(
                DrcViolation(
                    rule="constant-pitch",
                    message=(
                        f"wire pitch {wire.width_um + wire.space_um}um != "
                        f"layer pitch {metal.pitch_um}um"
                    ),
                    wire_name=wire.net.name,
                )
            )

        key = (wire.net.channel_key(), wire.layer, wire.track)
        if key in occupied:
            report.violations.append(
                DrcViolation(
                    rule="track-overlap",
                    message=f"track shared with {occupied[key]}",
                    wire_name=wire.net.name,
                )
            )
        else:
            occupied[key] = wire.net.name

        if wire.length_mm < 0:
            report.violations.append(
                DrcViolation(
                    rule="degenerate-geometry",
                    message="negative wire length",
                    wire_name=wire.net.name,
                )
            )

    return report
