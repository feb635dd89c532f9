"""Cross-cutting analysis: technology DSE and ASCII field rendering."""

from .dse import (
    DesignPoint,
    sweep_array_size,
)
from .render import render_field

__all__ = [
    "DesignPoint",
    "sweep_array_size",
    "render_field",
]
