"""Distributed PageRank on the emulator.

A third graph kernel in the paper's motivating class ("graph processing,
data analytics"): power-iteration PageRank with per-tile vertex ownership.
Every superstep each tile scatters its vertices' rank contributions to
the owners of their neighbours and accumulates incoming contributions —
the all-to-all-ish traffic pattern that stresses the mesh differently
from BFS's frontier waves.

Validated against ``networkx.pagerank`` in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from ..config import Coord
from ..errors import WorkloadError
from ..arch.emulator import EmulationStats, Emulator, Message
from ..arch.system import WaferscaleSystem
from .graphs import GraphPartition, partition_graph

CYCLES_PER_CONTRIBUTION = 3


@dataclass
class PageRankResult:
    """Converged ranks plus emulation accounting."""

    ranks: dict[int, float]
    iterations: int
    stats: EmulationStats


class DistributedPageRank:
    """Power-iteration PageRank over a tile-partitioned undirected graph."""

    def __init__(
        self,
        system: WaferscaleSystem,
        graph: nx.Graph,
        damping: float = 0.85,
        partition: GraphPartition | None = None,
    ):
        if not 0.0 < damping < 1.0:
            raise WorkloadError("damping must be in (0, 1)")
        if graph.number_of_nodes() == 0:
            raise WorkloadError("empty graph")
        self.system = system
        self.graph = graph
        self.damping = damping
        self.partition = partition or partition_graph(
            graph, system.healthy_coords()
        )

    def run(
        self,
        iterations: int = 30,
        tolerance: float = 1e-8,
        engine: str | None = None,
    ) -> PageRankResult:
        """Run power iterations until convergence or the iteration cap.

        ``engine`` selects the emulator: the scalar oracle (``"fast"``,
        the default, or ``"reference"``) or ``"vector"``; results are
        identical.
        """
        if iterations < 1:
            raise WorkloadError("need at least one iteration")
        n = self.graph.number_of_nodes()
        ranks = {v: 1.0 / n for v in self.graph.nodes}
        owner = self.partition.owner_of
        emulator = Emulator(self.system, engine=engine)
        iterations_run = 0

        for _ in range(iterations):
            iterations_run += 1
            incoming: dict[int, float] = {v: 0.0 for v in self.graph.nodes}

            # Superstep A: scatter contributions to neighbour owners.
            def scatter(tile: Coord, inbox: list[Message], em: Emulator) -> int:
                count = 0
                for vertex in self.partition.vertices_of(tile):
                    degree = self.graph.degree(vertex)
                    if degree == 0:
                        continue
                    share = ranks[vertex] / degree
                    for neighbor in self.graph.neighbors(vertex):
                        count += 1
                        em.send(tile, owner(neighbor),
                                ("contrib", neighbor, share))
                return count * CYCLES_PER_CONTRIBUTION

            emulator.superstep(scatter)

            # Superstep B: gather and update.
            def gather(tile: Coord, inbox: list[Message], em: Emulator) -> int:
                for message in inbox:
                    _, vertex, share = message.payload
                    incoming[vertex] += share
                return len(inbox) * CYCLES_PER_CONTRIBUTION

            emulator.superstep(gather)

            base = (1.0 - self.damping) / n
            new_ranks = {
                v: base + self.damping * incoming[v] for v in self.graph.nodes
            }
            delta = sum(abs(new_ranks[v] - ranks[v]) for v in self.graph.nodes)
            ranks = new_ranks
            if delta < tolerance:
                break

        return PageRankResult(
            ranks=ranks, iterations=iterations_run, stats=emulator.stats
        )


def reference_pagerank(
    graph: nx.Graph, damping: float = 0.85
) -> dict[int, float]:
    """NetworkX golden reference."""
    return nx.pagerank(graph, alpha=damping)
