"""Wafer, tile, chiplet and reticle geometry (paper Sections II and VIII)."""

from .chiplet import ChipletKind, ChipletSpec, compute_chiplet, memory_chiplet
from .reticle import Reticle, ReticlePlan, plan_reticles
from .wafer import TilePlacement, WaferLayout, build_layout

__all__ = [
    "ChipletKind",
    "ChipletSpec",
    "compute_chiplet",
    "memory_chiplet",
    "Reticle",
    "ReticlePlan",
    "plan_reticles",
    "TilePlacement",
    "WaferLayout",
    "build_layout",
]
