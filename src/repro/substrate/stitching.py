"""Reticle-stitching wire rules (paper Section VIII).

The wafer is exposed by stepping one reticle, so wires crossing a reticle
boundary are printed by two different exposures whose overlay can
misalign.  To tolerate stitching error, boundary-crossing wires are made
**fatter at constant pitch**: width grows from 2um to 3um while spacing
shrinks from 3um to 2um, keeping the 5um pitch so track positions (and
the router's capacity math) are unchanged.
"""

from __future__ import annotations

from .. import params


def stitch_geometry() -> tuple[float, float]:
    """(width_um, space_um) for a wire segment crossing a reticle boundary."""
    return (params.STITCH_WIRE_WIDTH_UM, params.STITCH_WIRE_SPACE_UM)


def intra_reticle_geometry() -> tuple[float, float]:
    """(width_um, space_um) for wires fully inside one reticle."""
    return (params.INTRA_RETICLE_WIRE_WIDTH_UM, params.INTRA_RETICLE_WIRE_SPACE_UM)
