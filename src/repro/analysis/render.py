"""ASCII rendering of per-tile scalar fields (voltage, temperature, ...).

Dependency-free visualisation for terminals and logs: maps a
``(rows, cols)`` field onto a character ramp.  Used by the examples to
show the Fig. 2 droop map and thermal maps without any plotting library.
"""

from __future__ import annotations

import numpy as np

from ..errors import ReproError

RAMP = " .:-=+*#%@"


def render_field(
    field: np.ndarray,
    ramp: str = RAMP,
    legend: bool = True,
) -> str:
    """Render a 2-D field as ASCII, dark = low, dense = high."""
    array = np.asarray(field, dtype=float)
    if array.ndim != 2:
        raise ReproError("field must be 2-D")
    if not ramp:
        raise ReproError("ramp must be non-empty")
    lo, hi = float(array.min()), float(array.max())
    span = hi - lo
    if span == 0.0:
        normalized = np.zeros_like(array)
    else:
        normalized = (array - lo) / span
    indices = np.minimum(
        (normalized * len(ramp)).astype(int), len(ramp) - 1
    )
    lines = [
        "".join(ramp[i] for i in row)
        for row in indices
    ]
    if legend:
        lines.append(f"[{ramp[0]}]={lo:.3g}  [{ramp[-1]}]={hi:.3g}")
    return "\n".join(lines)
