"""Graph workloads and traffic generators (paper Section II validation)."""

from .bfs import BfsResult, DistributedBfs
from .collectives import (
    PATTERNS,
    PLACEMENTS,
    CollectiveDriver,
    CollectiveProgram,
    CollectiveSpec,
    NocCollective,
    Transfer,
    all_to_all,
    broadcast,
    build_program,
    check_delivery,
    collective_fault_sweep,
    compile_noc,
    contribution,
    execute_program,
    fault_sweep,
    pipeline,
    recursive_doubling_all_reduce,
    ring_all_reduce,
    run_noc_collective,
    select_ranks,
    tree_reduce,
)
from .dataflow import DataflowGraph, demo_graph
from .graphs import GraphPartition, grid_graph, random_graph, rmat_graph
from .pagerank import DistributedPageRank, PageRankResult
from .sssp import DistributedSssp, SsspResult
from .stencil import DistributedStencil, StencilResult
from .traffic import TrafficPattern, generate_traffic
from .waves import FrontierWave

__all__ = [
    "FrontierWave",
    "BfsResult",
    "DistributedBfs",
    "GraphPartition",
    "grid_graph",
    "random_graph",
    "rmat_graph",
    "DistributedPageRank",
    "PageRankResult",
    "DistributedStencil",
    "StencilResult",
    "DistributedSssp",
    "SsspResult",
    "TrafficPattern",
    "generate_traffic",
    "PATTERNS",
    "PLACEMENTS",
    "CollectiveDriver",
    "CollectiveProgram",
    "CollectiveSpec",
    "NocCollective",
    "Transfer",
    "all_to_all",
    "broadcast",
    "build_program",
    "check_delivery",
    "collective_fault_sweep",
    "compile_noc",
    "contribution",
    "execute_program",
    "fault_sweep",
    "pipeline",
    "recursive_doubling_all_reduce",
    "ring_all_reduce",
    "run_noc_collective",
    "select_ranks",
    "tree_reduce",
    "DataflowGraph",
    "demo_graph",
]
