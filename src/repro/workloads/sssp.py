"""Distributed single-source shortest path (paper Section II).

Bellman-Ford-style label-correcting SSSP in the same owner-computes
superstep style as :mod:`.bfs`: a tile relaxes incoming tentative
distances for its vertices and propagates improvements to the owners of
their neighbours.  Converges when no improvement messages remain —
asynchronous-ish label correction, the natural fit for a message-passing
manycore.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from ..config import Coord
from ..errors import WorkloadError
from ..arch.emulator import EmulationStats, Emulator, Message
from ..arch.system import WaferscaleSystem
from .graphs import GraphPartition, partition_graph

CYCLES_PER_RELAXATION = 6


@dataclass
class SsspResult:
    """Shortest-path distances plus emulation accounting."""

    source: int
    distance: dict[int, float]
    stats: EmulationStats

    def reached(self) -> int:
        """Number of vertices with a finite distance."""
        return len(self.distance)


class DistributedSssp:
    """SSSP over a weighted graph partitioned across the system."""

    def __init__(
        self,
        system: WaferscaleSystem,
        graph: nx.Graph,
        partition: GraphPartition | None = None,
    ):
        self.system = system
        self.graph = graph
        for u, v, data in graph.edges(data=True):
            weight = data.get("weight", 1)
            if weight < 0:
                raise WorkloadError(
                    f"negative edge weight on ({u}, {v}) unsupported"
                )
        self.partition = partition or partition_graph(
            graph, system.healthy_coords()
        )

    def run(
        self,
        source: int,
        max_supersteps: int = 10_000,
        engine: str | None = None,
    ) -> SsspResult:
        """Run SSSP from ``source``.

        ``engine`` selects the emulator: the scalar oracle (``"fast"``,
        the default, or ``"reference"``) or ``"vector"``; results are
        identical.
        """
        if source not in self.graph:
            raise WorkloadError(f"source {source} not in graph")

        emulator = Emulator(self.system, engine=engine)
        distance: dict[int, float] = {}
        owner = self.partition.owner_of

        emulator.send(owner(source), owner(source), ("relax", source, 0.0))

        def compute(tile: Coord, inbox: list[Message], em: Emulator) -> int:
            relaxations = 0
            for message in inbox:
                tag, vertex, dist = message.payload
                if tag != "relax":
                    raise WorkloadError(f"unexpected message {tag!r}")
                if vertex in distance and distance[vertex] <= dist:
                    continue
                distance[vertex] = dist
                for neighbor in self.graph.neighbors(vertex):
                    relaxations += 1
                    weight = self.graph[vertex][neighbor].get("weight", 1)
                    candidate = dist + weight
                    if neighbor not in distance or candidate < distance[neighbor]:
                        em.send(tile, owner(neighbor), ("relax", neighbor, candidate))
            return relaxations * CYCLES_PER_RELAXATION

        stats = emulator.run(compute, max_supersteps=max_supersteps)
        return SsspResult(source=source, distance=distance, stats=stats)


def reference_sssp(graph: nx.Graph, source: int) -> dict[int, float]:
    """NetworkX golden reference (Dijkstra) for validation."""
    return dict(nx.single_source_dijkstra_path_length(graph, source))
