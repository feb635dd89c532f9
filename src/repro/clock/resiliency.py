"""Clock-forwarding resiliency analysis (paper Section IV).

The paper argues (by induction) that the generated fast clock reaches every
non-faulty tile *unless all of a tile's neighbours are faulty* — more
precisely, unless the tile is disconnected from every generator in the
subgraph of healthy tiles.  This module provides:

* :func:`unreachable_tiles` — exact reachability via the forwarding
  simulator;
* :func:`clock_coverage_theorem_holds` — machine-checks the paper's
  induction claim on arbitrary fault maps;
* :func:`monte_carlo_clock_coverage` — coverage statistics versus fault
  count, the clock-network analogue of Fig. 6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import Coord, SystemConfig
from ..errors import ClockError
from .forwarding import simulate_clock_setup


def unreachable_tiles(
    config: SystemConfig,
    faulty: set[Coord] | frozenset[Coord],
    generators: list[Coord] | None = None,
) -> set[Coord]:
    """Healthy tiles the fast clock cannot reach."""
    result = simulate_clock_setup(config, generators=generators, faulty=faulty)
    return set(result.unclocked_tiles)


def isolated_tiles(config: SystemConfig, faulty: set[Coord] | frozenset[Coord]) -> set[Coord]:
    """Healthy tiles whose four neighbours are all faulty.

    These are unusable regardless of clocking: the inter-tile network
    cannot reach them either (the paper's point about Fig. 4's tile 2).
    """
    out: set[Coord] = set()
    for coord in config.tile_coords():
        if coord in faulty:
            continue
        nbrs = config.neighbors(coord)
        if nbrs and all(n in faulty for n in nbrs):
            out.add(coord)
    return out


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
    import networkx as nx

    result = simulate_clock_setup(config, generators=generators, faulty=faulty)
    graph = nx.Graph()
    healthy = [c for c in config.tile_coords() if c not in result.faulty]
    graph.add_nodes_from(healthy)
    for coord in healthy:
        for nbr in config.neighbors(coord):
            if nbr not in result.faulty:
                graph.add_edge(coord, nbr)

    reachable_ref: set[Coord] = set()
    for gen in result.generators:
        reachable_ref |= nx.node_connected_component(graph, gen)

    simulated = {c for c in healthy if result.states[c].has_fast_clock}
    return simulated == reachable_ref


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

    Returns ``None`` for pathological maps with no healthy edge tile (no
    generator can be placed), which the aggregator skips — matching the
    serial implementation's ``continue``.
    """
    config = ctx.config
    count = ctx.params["fault_count"]
    all_coords = list(config.tile_coords())
    idx = ctx.rng.choice(len(all_coords), size=count, replace=False)
    faulty = {all_coords[i] for i in idx}
    edge_ok = [
        c for c in all_coords
        if config.is_edge_tile(c) and c not in faulty
    ]
    if not edge_ok:
        return None
    result = simulate_clock_setup(config, generators=[edge_ok[0]], faulty=faulty)
    return result.coverage, len(result.unclocked_tiles)


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
    does).  Trials run on the experiment engine; ``workers``, ``cache``
    and ``engine`` as in :class:`repro.engine.ExperimentEngine`.
    """
    from ..engine import ExperimentEngine

    for count in fault_counts:
        if count >= config.tiles:
            raise ClockError("cannot fault every tile")
    eng = engine or ExperimentEngine(workers=workers, cache=cache)
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
