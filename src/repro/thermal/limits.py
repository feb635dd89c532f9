"""Thermal envelope analysis for higher-power waferscale systems.

Answers the scaling question the paper leaves as ongoing work: how much
power per tile can the assembly dissipate before the hottest junction
exceeds its limit, under a given cooling solution — and therefore how far
the 350mW/tile prototype is from the thermal wall.
"""

from __future__ import annotations

from ..config import SystemConfig
from ..errors import PdnError
from .grid import ThermalGrid

DEFAULT_TJ_MAX_C = 105.0


def max_power_per_tile_w(
    config: SystemConfig | None = None,
    ambient_c: float = 25.0,
    tj_max_c: float = DEFAULT_TJ_MAX_C,
    **grid_kwargs,
) -> float:
    """Largest uniform per-tile power keeping the hotspot under Tj,max.

    The thermal network is linear, so the temperature *rise* scales with
    power: solve once at 1W/tile and scale.
    """
    cfg = config or SystemConfig()
    if tj_max_c <= ambient_c:
        raise PdnError("junction limit must exceed ambient")
    grid = ThermalGrid(cfg, **grid_kwargs)
    unit = grid.solve(tile_power_w=1.0, ambient_c=ambient_c)
    rise_per_watt = unit.max_rise_c
    if rise_per_watt <= 0:
        raise PdnError("degenerate thermal network")
    return (tj_max_c - ambient_c) / rise_per_watt


def system_power_budget_w(
    config: SystemConfig | None = None, **kwargs
) -> float:
    """Whole-wafer power budget at the thermal limit."""
    cfg = config or SystemConfig()
    return max_power_per_tile_w(cfg, **kwargs) * cfg.tiles
