"""System configuration: the single source of truth for a system instance.

A :class:`SystemConfig` captures every parameter needed to instantiate the
geometry, PDN, clock network, NoC, DfT chains and substrate of a waferscale
processor.  The default configuration reproduces the paper's 32x32-tile,
2048-chiplet, 14336-core prototype; reduced configurations (e.g. 8x8) are
used for cycle-level simulation and for reproducing Fig. 4.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Any, Iterator

from . import params
from .errors import ConfigError

Coord = tuple[int, int]
"""A tile coordinate ``(row, col)`` with ``(0, 0)`` at the north-west corner."""


@dataclass(frozen=True)
class SystemConfig:
    """Parameters of one waferscale processor instance.

    All defaults are the paper's published values (see :mod:`repro.params`).
    The dataclass is frozen so a config can be shared between subsystems and
    used as a dict key; use :meth:`scaled` or :func:`dataclasses.replace`
    to derive variants.
    """

    # -- organisation ------------------------------------------------------
    rows: int = params.TILE_ROWS
    cols: int = params.TILE_COLS
    cores_per_tile: int = params.CORES_PER_TILE
    memory_banks_per_tile: int = params.MEMORY_BANKS_PER_TILE
    shared_banks_per_tile: int = params.SHARED_BANKS_PER_TILE
    bank_bytes: int = params.MEMORY_BANK_BYTES
    private_sram_per_core_bytes: int = params.PRIVATE_SRAM_PER_CORE_BYTES

    # -- geometry (mm) -----------------------------------------------------
    compute_chiplet_w_mm: float = params.COMPUTE_CHIPLET_W_MM
    compute_chiplet_h_mm: float = params.COMPUTE_CHIPLET_H_MM
    memory_chiplet_w_mm: float = params.MEMORY_CHIPLET_W_MM
    memory_chiplet_h_mm: float = params.MEMORY_CHIPLET_H_MM
    inter_chiplet_spacing_mm: float = params.INTER_CHIPLET_SPACING_MM

    # -- electrical --------------------------------------------------------
    edge_supply_voltage: float = params.EDGE_SUPPLY_VOLTAGE
    nominal_vdd: float = params.NOMINAL_VDD
    nominal_freq_hz: float = params.NOMINAL_FREQ_HZ
    tile_peak_power_w: float = params.TILE_PEAK_POWER_W
    ff_corner_voltage: float = params.FF_CORNER_VOLTAGE
    decap_per_tile_f: float = params.DECAP_PER_TILE_F
    metal_thickness_um: float = params.MAX_METAL_THICKNESS_UM
    power_layers: int = params.POWER_LAYERS

    # -- clock -------------------------------------------------------------
    forwarded_clock_hz: float = params.FORWARDED_CLOCK_MAX_HZ
    toggle_count: int = params.CLOCK_TOGGLE_COUNT_DEFAULT

    # -- network -----------------------------------------------------------
    link_width_bits: int = params.LINK_WIDTH_BITS
    packet_width_bits: int = params.PACKET_WIDTH_BITS
    buses_per_edge: int = params.BUSES_PER_EDGE

    # -- I/O ---------------------------------------------------------------
    ios_per_compute_chiplet: int = params.IOS_PER_COMPUTE_CHIPLET
    ios_per_memory_chiplet: int = params.IOS_PER_MEMORY_CHIPLET
    pillar_bond_yield: float = params.PILLAR_BOND_YIELD
    pillars_per_pad: int = params.PILLARS_PER_PAD
    io_pad_pitch_um: float = params.CU_PILLAR_PITCH_UM

    # -- DfT ---------------------------------------------------------------
    jtag_chains: int = params.JTAG_CHAINS
    jtag_tck_hz: float = params.JTAG_TCK_MAX_HZ

    # -- substrate ---------------------------------------------------------
    signal_layers: int = params.SIGNAL_LAYERS
    wire_pitch_um: float = params.WIRE_PITCH_UM
    reticle_tile_cols: int = params.RETICLE_TILE_COLS
    reticle_tile_rows: int = params.RETICLE_TILE_ROWS

    def __post_init__(self) -> None:
        # NaN passes every range check below (all comparisons with NaN
        # are false), so finiteness is checked first.
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            try:
                finite = not isinstance(value, bool) and math.isfinite(value)
            except (TypeError, OverflowError):
                finite = False
            if not finite:
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        # Counts and sizes: a float, bool or string here used to pass and
        # crash a later stage (``buses_per_edge=0`` divided by zero in
        # ``validate_design``).  Every int field is at least 1.
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.rows < 1 or self.cols < 1:
            raise ConfigError(f"tile array must be at least 1x1, got {self.rows}x{self.cols}")
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be at least 1, got {value!r}")
        if self.tile_peak_power_w < 0:
            raise ConfigError(
                f"tile_peak_power_w must be non-negative, got {self.tile_peak_power_w!r}"
            )
        if not 0.0 < self.pillar_bond_yield <= 1.0:
            raise ConfigError("pillar_bond_yield must be in (0, 1]")
        # SRAMs are word-addressed (32-bit words): sizes are whole words.
        for name in ("bank_bytes", "private_sram_per_core_bytes"):
            size = getattr(self, name)
            if size % 4:
                raise ConfigError(
                    f"{name} must be a positive multiple of 4 bytes, got {size!r}"
                )
        if self.shared_banks_per_tile > self.memory_banks_per_tile:
            raise ConfigError(
                f"shared_banks_per_tile ({self.shared_banks_per_tile}) cannot "
                f"exceed memory_banks_per_tile ({self.memory_banks_per_tile})"
            )
        if self.edge_supply_voltage <= self.nominal_vdd:
            raise ConfigError(
                f"edge_supply_voltage ({self.edge_supply_voltage}) must exceed "
                f"nominal_vdd ({self.nominal_vdd}) for LDO regulation"
            )
        if self.signal_layers not in (1, 2):
            raise ConfigError(
                f"signal_layers must be 1 or 2 (substrate model), got {self.signal_layers!r}"
            )
        if self.packet_width_bits > self.link_width_bits:
            raise ConfigError(
                f"packet_width_bits ({self.packet_width_bits}) must fit within "
                f"link_width_bits ({self.link_width_bits})"
            )

    # -- derived quantities -------------------------------------------------

    @property
    def tiles(self) -> int:
        """Total number of tiles in the array."""
        return self.rows * self.cols

    @property
    def chiplets(self) -> int:
        """Total number of chiplets (two per tile)."""
        return self.tiles * params.CHIPLETS_PER_TILE

    @property
    def cores(self) -> int:
        """Total number of cores in the system."""
        return self.tiles * self.cores_per_tile

    @property
    def shared_memory_bytes(self) -> int:
        """Globally addressable shared memory capacity in bytes."""
        return self.tiles * self.shared_banks_per_tile * self.bank_bytes

    @property
    def tile_shared_memory_bytes(self) -> int:
        """Shared memory contributed by one tile (its shared banks)."""
        return self.shared_banks_per_tile * self.bank_bytes

    @property
    def total_memory_bytes(self) -> int:
        """All SRAM in the system: shared banks + tile-private bank + core SRAMs."""
        per_tile = (
            self.memory_banks_per_tile * self.bank_bytes
            + self.cores_per_tile * self.private_sram_per_core_bytes
        )
        return self.tiles * per_tile

    @property
    def tile_pitch_x_mm(self) -> float:
        """Horizontal tile pitch: chiplet width + inter-chiplet spacing."""
        return self.compute_chiplet_w_mm + self.inter_chiplet_spacing_mm

    @property
    def tile_pitch_y_mm(self) -> float:
        """Vertical tile pitch: compute + memory chiplet heights + two gaps."""
        return (
            self.compute_chiplet_h_mm
            + self.memory_chiplet_h_mm
            + 2 * self.inter_chiplet_spacing_mm
        )

    @property
    def array_width_mm(self) -> float:
        """Width of the populated tile array."""
        return self.cols * self.tile_pitch_x_mm

    @property
    def array_height_mm(self) -> float:
        """Height of the populated tile array."""
        return self.rows * self.tile_pitch_y_mm

    @property
    def array_area_mm2(self) -> float:
        """Area of the populated tile array (excluding edge fan-out)."""
        return self.array_width_mm * self.array_height_mm

    @property
    def total_peak_power_w(self) -> float:
        """Peak power drawn from the edge supply.

        The paper's 725W headline figure is the edge-supply power:
        290A of delivered current at the 2.5V edge voltage.  Per-tile this
        is ``tile_peak_power / ff_corner_voltage`` amps of logic current,
        all of which (LDO regulation is linear, so input current equals
        output current) must be sourced at the edge voltage.
        """
        return self.total_edge_current_a * self.edge_supply_voltage

    @property
    def total_edge_current_a(self) -> float:
        """Total current delivered from the wafer edge at peak draw."""
        tile_current = self.tile_peak_power_w / self.ff_corner_voltage
        return self.tiles * tile_current

    # -- iteration helpers ---------------------------------------------------

    def tile_coords(self) -> Iterator[Coord]:
        """Yield every tile coordinate in row-major order."""
        for r in range(self.rows):
            for c in range(self.cols):
                yield (r, c)

    def is_edge_tile(self, coord: Coord) -> bool:
        """True when the tile sits on the boundary of the array."""
        r, c = coord
        self.validate_coord(coord)
        return r in (0, self.rows - 1) or c in (0, self.cols - 1)

    def validate_coord(self, coord: Coord) -> None:
        """Raise :class:`ConfigError` when ``coord`` is outside the array."""
        r, c = coord
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise ConfigError(
                f"tile {coord} outside {self.rows}x{self.cols} array"
            )

    def neighbors(self, coord: Coord) -> list[Coord]:
        """The 4-connected (mesh) neighbours of a tile, in N/S/W/E order."""
        r, c = coord
        self.validate_coord(coord)
        candidates = [(r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)]
        return [
            (rr, cc)
            for rr, cc in candidates
            if 0 <= rr < self.rows and 0 <= cc < self.cols
        ]

    # -- serialisation --------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Every field as a plain ``{name: value}`` dict.

        The canonical serialised form of a configuration: JSON-friendly,
        round-trips through :meth:`from_dict`, and is what the
        experiment engine hashes into its result-cache keys.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict[str, Any] | None = None) -> "SystemConfig":
        """Build a configuration from a (possibly partial) field dict.

        Missing fields take the paper's published defaults; unknown keys
        raise :class:`ConfigError` so typos never silently produce the
        default system.  ``from_dict(cfg.to_dict())`` is an exact
        round-trip.
        """
        data = dict(data or {})
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
        return cls(**data)

    # -- variants -------------------------------------------------------------

    def variant(self, **overrides: Any) -> "SystemConfig":
        """A copy with named fields replaced (validation re-runs)."""
        return self.from_dict({**self.to_dict(), **overrides})

    def scaled(self, rows: int, cols: int) -> "SystemConfig":
        """Return a copy with a different tile-array size.

        Used for the reduced-size configurations the paper emulated on FPGA
        and for the 8x8 clock-forwarding example of Fig. 4.  Alias for
        ``variant(rows=..., cols=...)``.
        """
        return self.variant(rows=rows, cols=cols)


# Field types are strings here (``from __future__ import annotations``).
_FLOAT_FIELDS = tuple(f.name for f in fields(SystemConfig) if f.type == "float")
_INT_FIELDS = tuple(f.name for f in fields(SystemConfig) if f.type == "int")


def paper_config() -> SystemConfig:
    """The full 32x32 prototype configuration from the paper."""
    return SystemConfig.from_dict({})


def reduced_config(rows: int = 8, cols: int = 8) -> SystemConfig:
    """A reduced-size configuration for simulation-heavy studies."""
    return SystemConfig.from_dict({"rows": rows, "cols": cols})
