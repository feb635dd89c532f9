"""Cross-subsystem consistency validation.

The subsystems are developed against the same :class:`SystemConfig`, but
nothing in Python forces, say, the substrate channel capacity to cover
the pad ring's I/O count — except this module.  Each check names one
invariant that ties two subsystems together; ``validate_design`` runs
them all and reports violations, which is what makes the library safe to
*modify*: break an assumption anywhere and the validator (and its tests)
says where.

These are the integration rules the paper's small design team enforced
by hand; a downstream user exploring new configurations gets them as
executable checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .. import params
from ..config import SystemConfig


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one consistency check."""

    name: str
    ok: bool
    detail: str


def _check_network_ios_match_link_width(cfg: SystemConfig) -> CheckResult:
    """Compute-chiplet network I/Os must equal 4 sides x link width."""
    from ..io.budget import compute_io_budget

    budget = compute_io_budget(cfg)
    expected = 4 * cfg.link_width_bits
    return CheckResult(
        name="network-ios-match-link-width",
        ok=budget.network_ios == expected,
        detail=f"budget {budget.network_ios} vs 4x{cfg.link_width_bits}",
    )


def _check_channels_fit_links(cfg: SystemConfig) -> CheckResult:
    """Substrate channels must carry the mesh links plus clock/test nets."""
    from ..substrate.netlist import ChannelKind
    from ..substrate.router import SubstrateRouter

    capacity = SubstrateRouter(cfg).channel_capacity(ChannelKind.HORIZONTAL, layer=1)
    demand = cfg.link_width_bits + 2 + 4    # link + clock pair + JTAG hop
    return CheckResult(
        name="channel-capacity-covers-links",
        ok=capacity >= demand,
        detail=f"capacity {capacity} tracks vs demand {demand}",
    )


def _check_pads_fit_perimeter(cfg: SystemConfig) -> CheckResult:
    """Both chiplets' I/O budgets must fit their pad rings."""
    from ..io.budget import compute_io_budget, memory_io_budget

    ok = compute_io_budget(cfg).fits_perimeter(cfg.io_pad_pitch_um) and (
        memory_io_budget(cfg).fits_perimeter(cfg.io_pad_pitch_um)
    )
    return CheckResult(
        name="pads-fit-perimeter",
        ok=ok,
        detail=f"at {cfg.io_pad_pitch_um}um pitch, 2 rows",
    )


def _check_shared_region_fits_window(cfg: SystemConfig) -> CheckResult:
    """Every tile's shared banks must fit the map's shared address window.

    Building the :class:`~repro.arch.memorymap.MemoryMap` already
    raises when a region overflows its window; ``validate_design``
    reports that as this check failing, with the map's message.
    """
    from ..arch.memorymap import SHARED_BASE, TILE_PRIVATE_BASE, MemoryMap

    shared = MemoryMap(cfg).shared_size
    window = TILE_PRIVATE_BASE - SHARED_BASE
    return CheckResult(
        name="shared-region-fits-window",
        ok=shared <= window,
        detail=f"shared region {shared} B in a {window} B window",
    )


def _check_packet_fits_bus(cfg: SystemConfig) -> CheckResult:
    """One packet per cycle per bus: packet width <= link width / buses."""
    bus_bits = cfg.link_width_bits // cfg.buses_per_edge
    return CheckResult(
        name="packet-fits-bus",
        ok=cfg.packet_width_bits <= bus_bits,
        detail=f"packet {cfg.packet_width_bits}b vs bus {bus_bits}b",
    )


def _check_packet_fields_fit(cfg: SystemConfig) -> CheckResult:
    """Tile ids must fit the packet's 10-bit source/destination fields."""
    from ..noc.packets import TILE_ID_BITS

    ok = cfg.tiles <= (1 << TILE_ID_BITS)
    return CheckResult(
        name="tile-ids-fit-packet-fields",
        ok=ok,
        detail=f"{cfg.tiles} tiles vs {1 << TILE_ID_BITS} addressable",
    )


def _check_ldo_covers_droop(cfg: SystemConfig) -> CheckResult:
    """Worst delivered voltage must stay inside the LDO tracking range."""
    from ..pdn.ldo import LdoModel
    from ..pdn.solver import PdnSolver

    solution = PdnSolver(cfg).solve()
    ldo = LdoModel()
    # 20mV of tolerance: the paper itself quotes the centre voltage as
    # "roughly 1.4V", and the droop calibration targets exactly that.
    ok = solution.min_voltage >= ldo.v_in_min - 0.02 and (
        solution.max_voltage <= ldo.v_in_max + 0.02
    )
    return CheckResult(
        name="ldo-covers-droop",
        ok=ok,
        detail=(
            f"delivered {solution.min_voltage:.2f}-{solution.max_voltage:.2f}V "
            f"vs LDO {ldo.v_in_min}-{ldo.v_in_max}V"
        ),
    )


def _check_connectors_cover_current(cfg: SystemConfig) -> CheckResult:
    """Edge connectors must source the solved supply current."""
    from ..substrate.connectors import plan_connectors

    plan = plan_connectors(cfg)
    return CheckResult(
        name="connectors-cover-current",
        ok=plan.feasible,
        detail=f"{plan.pins_required} pins needed / {plan.pins_available} available",
    )


def _check_io_cell_under_pad(cfg: SystemConfig) -> CheckResult:
    """The transceiver must fit under its two-pillar pad."""
    from ..io.cell import IoCellModel

    ok = IoCellModel().fits_under_pads(1, cfg.io_pad_pitch_um, params.PILLARS_PER_PAD)
    return CheckResult(
        name="io-cell-under-pad",
        ok=ok,
        detail=f"150um2 cell vs {cfg.io_pad_pitch_um}um pitch x 2 pillars",
    )


def _check_edge_fanout_density(cfg: SystemConfig) -> CheckResult:
    """Edge fan-out must respect the substrate wire density."""
    from ..substrate.fanout import plan_edge_fanout

    try:
        fanout = plan_edge_fanout(cfg)
    except Exception as exc:        # pragma: no cover - defensive
        return CheckResult("edge-fanout-density", False, str(exc))
    return CheckResult(
        name="edge-fanout-density",
        ok=fanout.density_ok(),
        detail=f"{fanout.total_edge_wires} wires over the edges",
    )


CHECKS: list[Callable[[SystemConfig], CheckResult]] = [
    _check_network_ios_match_link_width,
    _check_channels_fit_links,
    _check_pads_fit_perimeter,
    _check_shared_region_fits_window,
    _check_packet_fits_bus,
    _check_packet_fields_fit,
    _check_ldo_covers_droop,
    _check_connectors_cover_current,
    _check_io_cell_under_pad,
    _check_edge_fanout_density,
]


@dataclass
class ValidationReport:
    """All check results for one configuration."""

    config: SystemConfig
    results: list[CheckResult]

    @property
    def ok(self) -> bool:
        """Every invariant holds."""
        return all(r.ok for r in self.results)

    def failures(self) -> list[CheckResult]:
        """The violated invariants."""
        return [r for r in self.results if not r.ok]

    def summary(self) -> str:
        """One line per check."""
        return "\n".join(
            f"[{'OK' if r.ok else 'VIOLATED'}] {r.name}: {r.detail}"
            for r in self.results
        )


def validate_design(config: SystemConfig | None = None) -> ValidationReport:
    """Run every cross-subsystem invariant check.

    A check that *raises* is itself a violated invariant (e.g. the
    memory map refusing to construct because the shared region overflows
    its address window on an oversized array) — it is reported, not
    propagated, so the full list of problems always comes back.
    """
    from ..errors import ReproError

    cfg = config or SystemConfig()
    results: list[CheckResult] = []
    for check in CHECKS:
        try:
            results.append(check(cfg))
        except ReproError as exc:
            name = check.__name__.removeprefix("_check_").replace("_", "-")
            results.append(CheckResult(name=name, ok=False, detail=str(exc)))
    return ValidationReport(config=cfg, results=results)
