"""Clock-generator placement optimisation (paper Section IV).

"First we select one or multiple edge tiles and configure them to
generate a faster clock" — but *which* edge tiles?  The forwarding depth
matters: every hop adds duty-cycle exposure, jitter and setup time, so a
good bring-up picks generators that minimise the deepest chain.  This
module provides:

* :func:`forwarding_depths` — per-tile hop depth for a generator set;
* :func:`best_single_generator` — the edge tile minimising the maximum
  depth (mid-edge beats the corner by almost 2x);
* :func:`greedy_generator_set` — the classic greedy k-center heuristic
  over edge tiles, for multi-generator bring-up.
"""

from __future__ import annotations

from collections import deque

from ..config import Coord, SystemConfig
from ..errors import ClockError


def forwarding_depths(
    config: SystemConfig,
    generators: list[Coord],
    faulty: frozenset[Coord] | set[Coord] = frozenset(),
) -> dict[Coord, int]:
    """BFS hop depth of every reachable healthy tile from the generators."""
    if not generators:
        raise ClockError("need at least one generator")
    for gen in generators:
        config.validate_coord(gen)
        if gen in faulty:
            raise ClockError(f"generator {gen} is faulty")
    depths: dict[Coord, int] = {g: 0 for g in generators}
    queue = deque(generators)
    while queue:
        tile = queue.popleft()
        for nbr in config.neighbors(tile):
            if nbr in faulty or nbr in depths:
                continue
            depths[nbr] = depths[tile] + 1
            queue.append(nbr)
    return depths


def max_depth(
    config: SystemConfig,
    generators: list[Coord],
    faulty: frozenset[Coord] | set[Coord] = frozenset(),
) -> int:
    """Deepest forwarding chain for a generator set."""
    depths = forwarding_depths(config, generators, faulty)
    return max(depths.values()) if depths else 0


def _healthy_edge_tiles(
    config: SystemConfig, faulty: frozenset[Coord] | set[Coord]
) -> list[Coord]:
    return [
        c
        for c in config.tile_coords()
        if config.is_edge_tile(c) and c not in faulty
    ]


def best_single_generator(
    config: SystemConfig,
    faulty: frozenset[Coord] | set[Coord] = frozenset(),
) -> tuple[Coord, int]:
    """The edge tile whose forwarding tree is shallowest.

    Exhaustive over edge tiles (at most ``2(rows+cols)-4`` candidates);
    returns ``(tile, max_depth)``.  On a clean 32x32 array the winner is
    a mid-edge tile at depth 47 versus 62 from a corner.
    """
    candidates = _healthy_edge_tiles(config, faulty)
    if not candidates:
        raise ClockError("no healthy edge tile available")
    best: tuple[Coord, int] | None = None
    for tile in candidates:
        depth = max_depth(config, [tile], faulty)
        if best is None or depth < best[1]:
            best = (tile, depth)
    return best


def greedy_generator_set(
    config: SystemConfig,
    count: int,
    faulty: frozenset[Coord] | set[Coord] = frozenset(),
) -> tuple[list[Coord], int]:
    """Greedy k-center over edge tiles: add the generator that most
    reduces the deepest chain, ``count`` times.

    Returns ``(generators, max_depth)``.  The first pick is the best
    single generator; each further pick is the edge tile covering the
    current deepest region.
    """
    if count < 1:
        raise ClockError("count must be >= 1")
    candidates = _healthy_edge_tiles(config, faulty)
    if not candidates:
        raise ClockError("no healthy edge tile available")

    generators: list[Coord] = [best_single_generator(config, faulty)[0]]
    while len(generators) < min(count, len(candidates)):
        best_tile: Coord | None = None
        best_depth: int | None = None
        for tile in candidates:
            if tile in generators:
                continue
            depth = max_depth(config, generators + [tile], faulty)
            if best_depth is None or depth < best_depth:
                best_tile, best_depth = tile, depth
        assert best_tile is not None
        generators.append(best_tile)
    return generators, max_depth(config, generators, faulty)
