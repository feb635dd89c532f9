"""Passive waferscale clock-distribution-network feasibility (Section IV).

The alternative the paper rejects: distribute a slow clock to all 1024
tiles over a passive copper tree on the Si-IF and multiply it locally.  Two
problems kill it.  First, the parasitics of a >15,000mm^2 tree with 1024
sinks exceed 450pF and 120nH; the distributed-RC settling limit puts the
usable toggle rate below 1MHz, and no crystal oscillator both drives that
load and holds sub-100ps absolute jitter.  Second, interior PLLs lack a
stable supply anyway: interior tiles see their regulated supply wander
within the 1.0-1.2V band, so only edge tiles can generate a clock.

This module quantifies the first argument so the rejection can be
re-derived from geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import params
from ..config import SystemConfig
from ..errors import ClockError

# Per-length wire parasitics for a 5um-wide, 2um-thick Si-IF trace over the
# substrate: standard first-order numbers for wide copper on oxide.
WIRE_R_OHM_PER_MM = 1.7          # rho / (w * t) = 1.72e-8 / (5e-6 * 2e-6) per m
WIRE_C_F_PER_MM = 0.2e-12        # ~0.2pF/mm for a wide trace
WIRE_L_H_PER_MM = 0.5e-9         # ~0.5nH/mm loop inductance
SINK_LOAD_F = 50e-15             # receiver load per tile sink

# A clock edge needs several RC time constants to settle across the tree;
# the usable period is conventionally >= 10x the Elmore delay.
SETTLING_FACTOR = 10.0


@dataclass(frozen=True)
class PassiveCdnModel:
    """Lumped model of an H-tree-ish passive CDN spanning the tile array."""

    total_wire_mm: float
    sink_count: int
    driver_r_ohm: float = 25.0

    def __post_init__(self) -> None:
        if self.total_wire_mm <= 0:
            raise ClockError("CDN must contain wire")
        if self.sink_count < 1:
            raise ClockError("CDN needs at least one sink")

    @property
    def capacitance_f(self) -> float:
        """Total tree capacitance: wire plus sink loads."""
        return (
            self.total_wire_mm * WIRE_C_F_PER_MM
            + self.sink_count * SINK_LOAD_F
        )

    @property
    def inductance_h(self) -> float:
        """Total loop inductance of the tree trunk wiring."""
        return self.total_wire_mm * WIRE_L_H_PER_MM

    @property
    def resistance_ohm(self) -> float:
        """End-to-end wire resistance of the longest source-sink path.

        Approximated as half the total wire (a balanced tree's trunk path)
        — adequate for a feasibility bound.
        """
        return self.driver_r_ohm + 0.5 * self.total_wire_mm * WIRE_R_OHM_PER_MM

    @property
    def elmore_delay_s(self) -> float:
        """First-order settling time of the distributed tree."""
        return self.resistance_ohm * self.capacitance_f

    @property
    def max_frequency_hz(self) -> float:
        """Usable toggle rate after allowing full settling per phase."""
        return 1.0 / (SETTLING_FACTOR * self.elmore_delay_s)

    def exceeds_paper_parasitics(self) -> bool:
        """True when parasitics reach the paper's >450pF / >120nH bounds."""
        return (
            self.capacitance_f > params.PASSIVE_CDN_CAPACITANCE_F
            and self.inductance_h > params.PASSIVE_CDN_INDUCTANCE_H
        )


def build_waferscale_cdn(config: SystemConfig | None = None) -> PassiveCdnModel:
    """Passive CDN sized for the configured wafer.

    An H-tree reaching every tile of an ``R x C`` array uses wire length on
    the order of the array dimension per level; a conservative estimate is
    ``sinks * average-branch-length`` with branches a half tile-pitch at the
    leaves growing to the array size at the trunk — bounded below by
    ``rows * cols * average pitch``.  For the 32x32 wafer this lands in the
    multi-metre range, matching the paper's >450pF bound.
    """
    cfg = config or SystemConfig()
    pitch = (cfg.tile_pitch_x_mm + cfg.tile_pitch_y_mm) / 2.0
    # An H-tree over N sinks has total length ~ N * pitch (each leaf branch
    # is ~one pitch, and each doubling level adds comparable total length).
    total_wire_mm = cfg.tiles * pitch * 2.0
    return PassiveCdnModel(total_wire_mm=total_wire_mm, sink_count=cfg.tiles)


def passive_cdn_is_viable(
    config: SystemConfig | None = None, required_hz: float = 10e6
) -> bool:
    """Can a passive CDN deliver the required reference frequency?

    For the paper's system the answer must be *no*: the PLL needs at least
    a 10MHz reference, and the tree tops out below 1MHz.
    """
    return build_waferscale_cdn(config).max_frequency_hz >= required_hz
