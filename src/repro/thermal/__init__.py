"""Waferscale thermal analysis (the paper's 'higher-power systems' work)."""

from .grid import ThermalGrid, ThermalSolution
from .limits import max_power_per_tile_w

__all__ = [
    "ThermalGrid",
    "ThermalSolution",
    "max_power_per_tile_w",
]
