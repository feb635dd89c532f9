"""Distributed breadth-first search on the emulator (paper Section II).

Frontier-synchronous BFS in the owner-computes style:

* every tile holds the adjacency lists and the distance array of the
  vertices it owns (in its shared banks);
* each superstep, a tile relaxes the frontier vertices it received,
  and for every newly-discovered vertex sends a message to that vertex's
  owner;
* the run converges when no messages remain — the emulator's quiescence
  test.

``DistributedBfs.run(engine=...)`` runs on either emulator engine
(``"reference"`` or ``"vector"``; ``"fast"`` is an alias of
``"reference"``); results are validated against NetworkX in the test
suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from ..config import Coord
from ..errors import WorkloadError
from ..arch.emulator import EmulationStats, Emulator, Message
from ..arch.system import WaferscaleSystem
from .graphs import GraphPartition, partition_graph

# Cycles a core spends scanning one adjacency entry (task-level constant).
CYCLES_PER_EDGE = 4


@dataclass
class BfsResult:
    """Distances plus emulation accounting."""

    source: int
    distance: dict[int, int]
    stats: EmulationStats

    def reached(self) -> int:
        """Number of vertices reached from the source."""
        return len(self.distance)


class DistributedBfs:
    """BFS over a graph partitioned across a waferscale system."""

    def __init__(
        self,
        system: WaferscaleSystem,
        graph: nx.Graph,
        partition: GraphPartition | None = None,
    ):
        self.system = system
        self.graph = graph
        self.partition = partition or partition_graph(
            graph, system.healthy_coords()
        )
        missing = set(graph.nodes) - set(self.partition.owner)
        if missing:
            raise WorkloadError(f"{len(missing)} vertices lack owners")

    def run(
        self,
        source: int,
        max_supersteps: int = 10_000,
        engine: str | None = None,
    ) -> BfsResult:
        """Run BFS from ``source``; returns distances and stats.

        ``engine`` picks the emulator (see :class:`Emulator`):
        ``"reference"`` and its alias ``"fast"`` (the default name) run
        the scalar oracle, ``"vector"`` the whole-array kernel.
        """
        if source not in self.graph:
            raise WorkloadError(f"source {source} not in graph")

        emulator = Emulator(self.system, engine=engine)
        distance: dict[int, int] = {}
        owner = self.partition.owner_of

        # Seed: the source's owner discovers it at distance 0.
        emulator.send(owner(source), owner(source), ("visit", source, 0))

        def compute(tile: Coord, inbox: list[Message], em: Emulator) -> int:
            edges_scanned = 0
            for message in inbox:
                tag, vertex, dist = message.payload
                if tag != "visit":
                    raise WorkloadError(f"unexpected message {tag!r}")
                if vertex in distance and distance[vertex] <= dist:
                    continue
                distance[vertex] = dist
                for neighbor in self.graph.neighbors(vertex):
                    edges_scanned += 1
                    if neighbor not in distance:
                        em.send(
                            tile, owner(neighbor), ("visit", neighbor, dist + 1)
                        )
            return edges_scanned * CYCLES_PER_EDGE

        # Mail-driven: a tile with an empty inbox has nothing to relax.
        stats = emulator.run(compute, max_supersteps=max_supersteps, active=())
        return BfsResult(source=source, distance=distance, stats=stats)


def reference_bfs(graph: nx.Graph, source: int) -> dict[int, int]:
    """NetworkX golden reference for validation."""
    return dict(nx.single_source_shortest_path_length(graph, source))
