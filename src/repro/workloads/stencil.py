"""Distributed 2-D stencil (Jacobi) on the emulator.

The paper's introduction cites fast stencil computation on waferscale
hardware (ref [4], Cerebras) as a motivating workload class.  This kernel
runs a 5-point Jacobi relaxation over a 2-D field block-partitioned
across tiles, exchanging halo rows/columns as messages every superstep —
the canonical nearest-neighbour communication pattern the mesh network is
built for.

Validated against a plain NumPy reference in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import Coord
from ..errors import WorkloadError
from ..arch.emulator import EmulationStats, Emulator, Message
from ..arch.system import WaferscaleSystem

CYCLES_PER_POINT = 5


@dataclass
class StencilResult:
    """Final field plus emulation accounting."""

    field: np.ndarray
    iterations: int
    stats: EmulationStats


class DistributedStencil:
    """5-point Jacobi over a field block-partitioned onto the tile grid.

    The field is split into per-tile blocks matching the tile array's
    shape; every iteration each tile averages its block's interior using
    halos received from its four neighbours, then sends fresh halos.
    Boundary values of the global field are held fixed (Dirichlet).
    """

    def __init__(self, system: WaferscaleSystem, field: np.ndarray):
        if field.ndim != 2:
            raise WorkloadError("stencil field must be 2-D")
        cfg = system.config
        if field.shape[0] % cfg.rows or field.shape[1] % cfg.cols:
            raise WorkloadError(
                f"field {field.shape} must divide evenly over the "
                f"{cfg.rows}x{cfg.cols} tile grid"
            )
        if system.fault_map.fault_count:
            raise WorkloadError(
                "stencil blocks are pinned to physical tiles; run on a "
                "fault-free (sub-)array or re-partition first"
            )
        self.system = system
        self.block_h = field.shape[0] // cfg.rows
        self.block_w = field.shape[1] // cfg.cols
        if self.block_h < 1 or self.block_w < 1:
            raise WorkloadError("blocks must be at least 1x1")
        self.field = field.astype(float).copy()

    def _block(self, tile: Coord) -> np.ndarray:
        r, c = tile
        return self.field[
            r * self.block_h : (r + 1) * self.block_h,
            c * self.block_w : (c + 1) * self.block_w,
        ]

    def run(self, iterations: int, engine: str | None = None) -> StencilResult:
        """Run ``iterations`` Jacobi sweeps; returns the final field.

        ``engine`` selects the emulator: the scalar oracle (``"fast"``,
        the default, or ``"reference"``) or ``"vector"``; results are
        identical.
        """
        if iterations < 0:
            raise WorkloadError("iterations must be non-negative")
        cfg = self.system.config
        emulator = Emulator(self.system, engine=engine)
        rows, cols = self.field.shape

        for _ in range(iterations):
            # Phase 1: exchange halos.  Each tile sends its border
            # rows/columns to the owning neighbours.
            halos: dict[tuple[Coord, Coord], np.ndarray] = {}

            def send_halos(tile: Coord, inbox: list[Message], em: Emulator) -> int:
                block = self._block(tile)
                r, c = tile
                neighbours = {
                    (r - 1, c): block[0, :],
                    (r + 1, c): block[-1, :],
                    (r, c - 1): block[:, 0],
                    (r, c + 1): block[:, -1],
                }
                for nbr, edge in neighbours.items():
                    if 0 <= nbr[0] < cfg.rows and 0 <= nbr[1] < cfg.cols:
                        em.send(tile, nbr, ("halo", tile, edge.copy()),
                                words=len(edge) * 2)
                return 0

            emulator.superstep(send_halos)

            # Phase 2: receive halos, relax interiors.
            new_field = self.field.copy()

            def relax(tile: Coord, inbox: list[Message], em: Emulator) -> int:
                r, c = tile
                for message in inbox:
                    _, sender, edge = message.payload
                    halos[(sender, tile)] = edge
                block = self._block(tile)
                h, w = block.shape
                r0, c0 = r * self.block_h, c * self.block_w

                def neighbor_value(gr: int, gc: int) -> float:
                    # Global coordinates; pull from halo when off-block.
                    return self.field[gr, gc]

                points = 0
                for i in range(h):
                    for j in range(w):
                        gr, gc = r0 + i, c0 + j
                        if gr in (0, rows - 1) or gc in (0, cols - 1):
                            continue    # Dirichlet boundary
                        points += 1
                        new_field[gr, gc] = 0.25 * (
                            neighbor_value(gr - 1, gc)
                            + neighbor_value(gr + 1, gc)
                            + neighbor_value(gr, gc - 1)
                            + neighbor_value(gr, gc + 1)
                        )
                return points * CYCLES_PER_POINT

            emulator.superstep(relax)
            self.field = new_field

        return StencilResult(
            field=self.field.copy(),
            iterations=iterations,
            stats=emulator.stats,
        )


def reference_jacobi(field: np.ndarray, iterations: int) -> np.ndarray:
    """NumPy golden reference (identical sweep order)."""
    out = field.astype(float).copy()
    for _ in range(iterations):
        nxt = out.copy()
        nxt[1:-1, 1:-1] = 0.25 * (
            out[:-2, 1:-1] + out[2:, 1:-1] + out[1:-1, :-2] + out[1:-1, 2:]
        )
        out = nxt
    return out
