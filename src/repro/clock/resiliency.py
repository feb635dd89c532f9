"""Clock-forwarding resiliency analysis (paper Section IV).

The paper argues (by induction) that the generated fast clock reaches every
non-faulty tile *unless all of a tile's neighbours are faulty* — more
precisely, unless the tile is disconnected from every generator in the
subgraph of healthy tiles.  This module provides:

* :func:`clock_coverage_theorem_holds` — machine-checks the paper's
  induction claim on arbitrary fault maps;
* :func:`monte_carlo_clock_coverage` — coverage statistics versus fault
  count, the clock-network analogue of Fig. 6.

Because the claim holds, the Monte Carlo never runs the per-tile
forwarding simulation: :func:`_clocked_tiles` takes the generators'
component of the healthy-tile grid graph with one sparse breadth-first
search, and :func:`~repro.clock.forwarding.simulate_clock_setup` stays
the oracle it is checked against (it alone models hop depth, arrival
time and inversion parity).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from ..config import Coord, SystemConfig
from ..errors import ClockError
from .forwarding import simulate_clock_setup


def clock_coverage_theorem_holds(
    config: SystemConfig,
    faulty: set[Coord] | frozenset[Coord],
    generators: list[Coord] | None = None,
) -> bool:
    """Check the paper's reachability claim on one fault map.

    Claim: a healthy tile misses the clock *iff* it is disconnected from
    every generator within the healthy-tile grid graph.  (The paper states
    the special case "all four neighbours faulty"; disconnection is the
    general condition its induction actually proves.)
    """
    result = simulate_clock_setup(config, generators=generators, faulty=faulty)
    healthy = np.ones(config.tiles, dtype=bool)
    healthy[[r * config.cols + c for r, c in result.faulty]] = False
    reached = _clocked_tiles(
        config, healthy, [r * config.cols + c for r, c in result.generators]
    )
    return set(result.clocked_tiles) == {divmod(int(i), config.cols) for i in reached}


@lru_cache(maxsize=4)
def _grid_graph(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-geometry precompute shared by every fault map of one array.

    Returns ``(src, dst, edge_tiles)``: the 4-connected mesh as directed
    flat-index edges (both directions) sorted by source, so a masked
    subset is still CSR-ordered, and the edge tiles in row-major order.
    """
    flat = np.arange(rows * cols, dtype=np.int32).reshape(rows, cols)
    west, east = flat[:, :-1].ravel(), flat[:, 1:].ravel()
    north, south = flat[:-1, :].ravel(), flat[1:, :].ravel()
    src = np.concatenate([west, east, north, south])
    dst = np.concatenate([east, west, south, north])
    order = np.argsort(src, kind="stable")
    border = np.ones((rows, cols), dtype=bool)
    border[1:-1, 1:-1] = False
    arrays = (src[order], dst[order], np.flatnonzero(border))
    for arr in arrays:
        arr.flags.writeable = False     # shared by every caller of the cache
    return arrays


def _clocked_tiles(
    config: SystemConfig, healthy: np.ndarray, generators
) -> np.ndarray:
    """Flat indices of the tiles the forwarded clock reaches.

    ``healthy`` is the row-major healthy-tile mask and ``generators`` the
    flat indices of (healthy) generator tiles.  The result is the union of
    the generators' components in the healthy-tile grid graph — exactly
    the clocked set of :func:`simulate_clock_setup`, by the paper's
    induction.  One breadth-first search from a virtual source wired to
    every generator covers several generators at once.
    """
    n = config.tiles
    src, dst, _ = _grid_graph(config.rows, config.cols)
    keep = healthy[src] & healthy[dst]
    indices = np.concatenate([dst[keep], np.asarray(generators, dtype=np.int32)])
    indptr = np.zeros(n + 2, dtype=np.int32)
    np.cumsum(np.bincount(src[keep], minlength=n), out=indptr[1 : n + 1])
    indptr[n + 1] = indices.size
    graph = csr_matrix(
        (np.ones(indices.size, dtype=np.int8), indices, indptr), shape=(n + 1, n + 1)
    )
    order = breadth_first_order(graph, n, directed=True, return_predecessors=False)
    return order[1:]


@dataclass(frozen=True)
class ClockCoverageStats:
    """Monte-Carlo coverage statistics for one fault count."""

    fault_count: int
    trials: int
    mean_coverage: float        # mean fraction of healthy tiles clocked
    min_coverage: float
    mean_unreachable: float     # mean count of healthy-but-unclocked tiles


def _coverage_trial(ctx) -> tuple[float, int] | None:
    """One coverage trial: random fault map, single edge generator.

    The generator is the first healthy edge tile in row-major order and
    the clocked count comes from :func:`_clocked_tiles`, so a trial is a
    handful of array operations, never a per-tile walk.  Returns ``None``
    for pathological maps with no healthy edge tile (no generator can be
    placed), which the aggregator skips.
    """
    config = ctx.config
    count = ctx.params["fault_count"]
    healthy = np.ones(config.tiles, dtype=bool)
    healthy[ctx.rng.choice(config.tiles, size=count, replace=False)] = False
    edge_tiles = _grid_graph(config.rows, config.cols)[2]
    edge_ok = edge_tiles[healthy[edge_tiles]]
    if not edge_ok.size:
        return None
    clocked = int(_clocked_tiles(config, healthy, edge_ok[:1]).size)
    alive = config.tiles - count
    return clocked / alive, alive - clocked


def monte_carlo_clock_coverage(
    config: SystemConfig,
    fault_counts: list[int],
    trials: int = 200,
    seed: int = 0,
    *,
    workers: int = 1,
    cache=None,
    engine=None,
) -> list[ClockCoverageStats]:
    """Coverage statistics over random fault maps.

    Faults are drawn uniformly over the array; the generator is the first
    healthy edge tile (matching the single-generator bring-up of Fig. 4 —
    resiliency does not depend on multiple generators, only availability
    does).  Each fault count must be an integer in ``[0, tiles)``.
    Trials run on the experiment engine; ``workers``, ``cache`` and
    ``engine`` as in :class:`repro.engine.ExperimentEngine`.
    """
    from ..engine import engine_scope

    for count in fault_counts:
        if (
            not isinstance(count, numbers.Integral)
            or isinstance(count, bool)
            or not 0 <= count < config.tiles
        ):
            raise ClockError(
                f"fault_counts: {count!r} is not an integer in [0, {config.tiles})"
            )
    with engine_scope(engine, workers=workers, cache=cache) as eng:
        stats: list[ClockCoverageStats] = []
        for count in fault_counts:
            run = eng.run(
                _coverage_trial,
                experiment="clock.coverage",
                trials=trials,
                seed=(seed, count),
                config=config,
                params={"fault_count": count},
            )
            outcomes = [value for value in run.values if value is not None]
            coverages = [coverage for coverage, _ in outcomes]
            unreachables = [unreachable for _, unreachable in outcomes]
            stats.append(
                ClockCoverageStats(
                    fault_count=count,
                    trials=len(outcomes),
                    mean_coverage=float(np.mean(coverages)) if coverages else 0.0,
                    min_coverage=float(np.min(coverages)) if coverages else 0.0,
                    mean_unreachable=float(np.mean(unreachables)) if unreachables else 0.0,
                )
            )
    return stats


def fig4_fault_map() -> tuple[SystemConfig, list[Coord], set[Coord]]:
    """The 8x8 example of Fig. 4: one corner generator, six faulty tiles.

    The fault pattern surrounds one interior tile on all four sides (the
    yellow tile of the figure), plus one more fault elsewhere, so the
    simulation shows exactly one healthy-but-unclocked tile and one tile
    (Fig. 4's tile 3) that still gets its clock through its single healthy
    neighbour.
    """
    config = SystemConfig(rows=8, cols=8)
    generator = [(0, 0)]
    # Surround tile (3, 3): faults N/S/W/E of it; tile (5, 6) keeps exactly
    # one healthy neighbour thanks to faults on three sides.
    faulty = {(2, 3), (4, 3), (3, 2), (3, 4), (5, 5), (4, 6)}
    return config, generator, faulty
