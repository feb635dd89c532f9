"""Thermal resistance-grid solver for the waferscale assembly.

The paper closes with "developing design methods for higher-power
waferscale systems" as ongoing work; the first-order tool that work needs
is a wafer-level thermal model.  The assembly conducts heat laterally
through the silicon wafer and vertically into a cold plate / heat sink
on the backside; the model is the exact thermal dual of the PDN mesh
(temperature <-> voltage, power <-> current, thermal conductance <->
electrical conductance), so it reuses the same sparse-Laplacian machinery:

* one node per tile at the wafer surface;
* lateral conductances from silicon's k = 148 W/(m K) through the wafer
  cross-section between adjacent tiles;
* a vertical conductance per tile into the ambient-temperature sink
  (wafer conduction + TIM + heatsink film coefficient);
* tile power injected as heat at each node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.linalg import spsolve

from ..config import Coord, SystemConfig
from ..errors import PdnError

SILICON_K_W_PER_M_K = 148.0
WAFER_THICKNESS_MM = 0.7            # full-thickness Si-IF wafer

# Effective vertical heat-transfer coefficient from the wafer backside
# into the coolant: TIM + cold plate.  5,000 W/(m^2 K) is a decent liquid
# cold plate; air cooling would be ~10x worse.
DEFAULT_SINK_H_W_PER_M2_K = 5_000.0


@dataclass
class ThermalSolution:
    """Temperature field of one solve."""

    config: SystemConfig
    temperatures_c: np.ndarray      # (rows, cols)
    ambient_c: float
    tile_power_w: np.ndarray

    @property
    def max_temperature_c(self) -> float:
        """Hottest tile temperature."""
        return float(self.temperatures_c.max())

    @property
    def max_rise_c(self) -> float:
        """Hotspot rise above ambient."""
        return self.max_temperature_c - self.ambient_c

    @property
    def gradient_c(self) -> float:
        """Hottest-to-coolest spread across the wafer."""
        return float(self.temperatures_c.max() - self.temperatures_c.min())

    def temperature_at(self, coord: Coord) -> float:
        """Temperature of one tile."""
        self.config.validate_coord(coord)
        return float(self.temperatures_c[coord])


class ThermalGrid:
    """Sparse thermal network over the tile array."""

    def __init__(
        self,
        config: SystemConfig | None = None,
        sink_h_w_per_m2_k: float = DEFAULT_SINK_H_W_PER_M2_K,
        wafer_thickness_mm: float = WAFER_THICKNESS_MM,
    ):
        self.config = config or SystemConfig()
        if sink_h_w_per_m2_k <= 0 or wafer_thickness_mm <= 0:
            raise PdnError("sink coefficient and thickness must be positive")
        self.sink_h = sink_h_w_per_m2_k
        self.thickness_m = wafer_thickness_mm * 1e-3
        self._system: csr_matrix | None = None
        self._sink_g: np.ndarray | None = None

    def _lateral_conductances(self) -> tuple[float, float]:
        """(horizontal, vertical) tile-to-tile thermal conductances, W/K."""
        px = self.config.tile_pitch_x_mm * 1e-3
        py = self.config.tile_pitch_y_mm * 1e-3
        g_h = SILICON_K_W_PER_M_K * (py * self.thickness_m) / px
        g_v = SILICON_K_W_PER_M_K * (px * self.thickness_m) / py
        return g_h, g_v

    def _sink_conductance(self) -> float:
        """Per-tile vertical conductance into the coolant, W/K."""
        tile_area_m2 = (
            self.config.tile_pitch_x_mm * self.config.tile_pitch_y_mm * 1e-6
        )
        g_film = self.sink_h * tile_area_m2
        g_bulk = SILICON_K_W_PER_M_K * tile_area_m2 / self.thickness_m
        # Film and bulk conduction in series.
        return 1.0 / (1.0 / g_film + 1.0 / g_bulk)

    def _build(self) -> tuple[csr_matrix, np.ndarray]:
        cfg = self.config
        n = cfg.tiles
        g_h, g_v = self._lateral_conductances()
        g_sink = self._sink_conductance()

        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        diag = np.full(n, g_sink)

        def index(coord: Coord) -> int:
            return coord[0] * cfg.cols + coord[1]

        def stamp(a: int, b: int, g: float) -> None:
            rows.extend((a, b))
            cols.extend((b, a))
            vals.extend((-g, -g))
            diag[a] += g
            diag[b] += g

        for coord in cfg.tile_coords():
            r, c = coord
            i = index(coord)
            if c + 1 < cfg.cols:
                stamp(i, index((r, c + 1)), g_h)
            if r + 1 < cfg.rows:
                stamp(i, index((r + 1, c)), g_v)

        rows.extend(range(n))
        cols.extend(range(n))
        vals.extend(diag)
        matrix = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        sink = np.full(n, g_sink)
        return matrix, sink

    def solve(
        self,
        tile_power_w: float | np.ndarray | None = None,
        ambient_c: float = 25.0,
    ) -> ThermalSolution:
        """Solve for the steady-state temperature field."""
        cfg = self.config
        if tile_power_w is None:
            tile_power_w = cfg.tile_peak_power_w
        power = np.asarray(tile_power_w, dtype=float)
        if power.ndim == 0:
            power = np.full((cfg.rows, cfg.cols), float(power))
        if power.shape != (cfg.rows, cfg.cols):
            raise PdnError(
                f"power map shape {power.shape} != grid {(cfg.rows, cfg.cols)}"
            )
        if (power < 0).any():
            raise PdnError("tile power must be non-negative")

        if self._system is None:
            self._system, self._sink_g = self._build()
        assert self._sink_g is not None

        rhs = power.reshape(-1) + self._sink_g * ambient_c
        temperatures = spsolve(self._system, rhs)
        return ThermalSolution(
            config=cfg,
            temperatures_c=temperatures.reshape(cfg.rows, cfg.cols),
            ambient_c=ambient_c,
            tile_power_w=power,
        )
