"""Production-lot simulation: from chiplet wafers to sellable systems.

Extends the single-wafer yield math to manufacturing scale: simulate a
lot of waferscale assemblies, bin each by its post-assembly fault count
(full-spec / degraded / scrap — the binning the dual-network fault
tolerance and the single-layer fallback of Section VIII make possible),
and report sellable capacity and per-bin counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SystemConfig
from ..errors import ConfigError
from ..io.bonding import chiplet_bond_yield


@dataclass(frozen=True)
class BinPolicy:
    """Fault thresholds for wafer binning."""

    full_spec_max_faults: int = 4       # sells as the headline product
    degraded_max_faults: int = 32       # sells as a reduced-tile SKU

    def __post_init__(self) -> None:
        if self.full_spec_max_faults < 0:
            raise ConfigError("full-spec threshold must be non-negative")
        if self.degraded_max_faults < self.full_spec_max_faults:
            raise ConfigError("degraded threshold below full-spec threshold")

    def bin_of(self, faults: int) -> str:
        """Bin label for one wafer's fault count."""
        if faults <= self.full_spec_max_faults:
            return "full-spec"
        if faults <= self.degraded_max_faults:
            return "degraded"
        return "scrap"


@dataclass
class LotReport:
    """Outcome of one simulated lot."""

    wafers: int
    bins: dict[str, int]
    fault_counts: list[int]
    tiles_per_wafer: int

    @property
    def sellable_fraction(self) -> float:
        """Wafers leaving the line as product."""
        sellable = self.bins.get("full-spec", 0) + self.bins.get("degraded", 0)
        return sellable / self.wafers if self.wafers else 0.0

    @property
    def mean_faults(self) -> float:
        """Average faulty tiles per wafer."""
        return float(np.mean(self.fault_counts)) if self.fault_counts else 0.0

    @property
    def sellable_tiles(self) -> int:
        """Healthy tiles across all sellable wafers (capacity shipped)."""
        policy_scrap = self.bins.get("scrap", 0)
        # Approximate: scrap wafers ship nothing; others ship healthy tiles.
        shipped = 0
        sellable_counts = sorted(self.fault_counts)[: self.wafers - policy_scrap]
        for faults in sellable_counts:
            shipped += self.tiles_per_wafer - faults
        return shipped


def _wafer_trial(ctx) -> int:
    """One lot trial: post-assembly fault count of a single wafer.

    Each wafer owns a private rng stream, so lot statistics are the same
    whether wafers are simulated serially or across a worker pool.
    """
    return int(ctx.rng.binomial(ctx.config.tiles, ctx.params["tile_fail_probability"]))


def simulate_lot(
    config: SystemConfig,
    wafers: int = 25,
    policy: BinPolicy | None = None,
    seed: int = 0,
    tile_fail_probability: float | None = None,
    *,
    workers: int = 1,
    cache=None,
    engine=None,
) -> LotReport:
    """Simulate one lot of assembled wafers.

    Per-tile failure combines both chiplets' bond yields (Section V);
    KGD escapes are negligible next to bonding at the default test
    coverage and are folded into an optional override probability.
    Wafers are independent trials on the experiment engine (``workers``,
    ``cache`` and ``engine`` as in :func:`repro.engine.ExperimentEngine`).
    """
    from ..engine import engine_scope

    if wafers < 1:
        raise ConfigError("lot needs at least one wafer")
    bins_policy = policy or BinPolicy()

    if tile_fail_probability is None:
        y_c = chiplet_bond_yield(
            config.ios_per_compute_chiplet,
            config.pillar_bond_yield,
            config.pillars_per_pad,
        )
        y_m = chiplet_bond_yield(
            config.ios_per_memory_chiplet,
            config.pillar_bond_yield,
            config.pillars_per_pad,
        )
        tile_fail_probability = 1.0 - y_c * y_m
    if not 0.0 <= tile_fail_probability <= 1.0:
        raise ConfigError("tile failure probability must be in [0, 1]")

    with engine_scope(engine, workers=workers, cache=cache) as eng:
        run = eng.run(
            _wafer_trial,
            experiment="yield.lot_wafers",
            trials=wafers,
            seed=seed,
            config=config,
            params={"tile_fail_probability": float(tile_fail_probability)},
        )
    fault_counts = [int(f) for f in run.values]
    bins: dict[str, int] = {"full-spec": 0, "degraded": 0, "scrap": 0}
    for faults in fault_counts:
        bins[bins_policy.bin_of(faults)] += 1
    return LotReport(
        wafers=wafers,
        bins=bins,
        fault_counts=fault_counts,
        tiles_per_wafer=config.tiles,
    )


def pillar_redundancy_lot_comparison(
    config: SystemConfig,
    wafers: int = 200,
    seed: int = 1,
    *,
    workers: int = 1,
    cache=None,
    engine=None,
) -> dict[int, LotReport]:
    """Lot outcomes at 1 vs 2 pillars per pad — Section V at lot scale.

    Each pillar variant derives an independent seed root ``(seed,
    pillars)``, so the two lots stay statistically independent while the
    whole comparison remains reproducible at any worker count.
    """
    from ..engine import engine_scope

    out: dict[int, LotReport] = {}
    with engine_scope(engine, workers=workers, cache=cache) as eng:
        for pillars in (1, 2):
            y_c = chiplet_bond_yield(
                config.ios_per_compute_chiplet, config.pillar_bond_yield, pillars
            )
            y_m = chiplet_bond_yield(
                config.ios_per_memory_chiplet, config.pillar_bond_yield, pillars
            )
            out[pillars] = simulate_lot(
                config,
                wafers=wafers,
                seed=(seed, pillars),
                tile_fail_probability=1.0 - y_c * y_m,
                engine=eng,
            )
    return out
