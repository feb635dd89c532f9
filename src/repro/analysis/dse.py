"""Technology design-space exploration over the waferscale models.

The library's payoff for a downstream user: vary one technology or
architecture knob and watch every derived quantity move consistently.
The sweep here is **array size**: how power delivery, clock depth,
bandwidth and load time scale from small arrays up to (and past) 32x32.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SystemConfig
from ..noc.topology import MeshTopology
from ..pdn.solver import PdnSolver
from ..dft.multichain import load_time_model, row_chains


@dataclass(frozen=True)
class DesignPoint:
    """Derived metrics of one configuration in a sweep."""

    label: str
    tiles: int
    cores: int
    min_delivered_v: float
    max_clock_hops: int
    network_bw_tbps: float
    load_time_min: float

    def as_row(self) -> tuple:
        """Row for tabular printing."""
        return (
            self.label,
            self.tiles,
            self.cores,
            f"{self.min_delivered_v:.2f}V",
            self.max_clock_hops,
            f"{self.network_bw_tbps:.2f}",
            f"{self.load_time_min:.1f}min",
        )


def _evaluate(config: SystemConfig, label: str) -> DesignPoint:
    solution = PdnSolver(config).solve()
    topo = MeshTopology(config)
    load = load_time_model(row_chains(config))
    # Deepest forwarding chain from a corner generator.
    max_hops = (config.rows - 1) + (config.cols - 1)
    return DesignPoint(
        label=label,
        tiles=config.tiles,
        cores=config.cores,
        min_delivered_v=solution.min_voltage,
        max_clock_hops=max_hops,
        network_bw_tbps=topo.aggregate_bandwidth_bytes_per_s() / 1e12,
        load_time_min=load.minutes,
    )


def sweep_array_size(sizes: list[int] | None = None) -> list[DesignPoint]:
    """Scale the tile array and watch edge delivery become the wall.

    The key shape: delivered centre voltage falls as the array grows
    (more current over longer plane paths); beyond ~32x32 the LDO input
    floor is violated and edge delivery stops working — the quantified
    version of the paper's closing remark about higher-power systems.
    """
    sizes = sizes or [8, 16, 24, 32, 40]
    points = []
    for size in sizes:
        cfg = SystemConfig(rows=size, cols=size)
        points.append(_evaluate(cfg, f"{size}x{size}"))
    return points
