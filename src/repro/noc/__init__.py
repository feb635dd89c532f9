"""Waferscale mesh network: routing, resiliency, simulation (Section VI)."""

from .adaptive import AdaptiveNocSimulator, AdaptiveRouter
from .checkpoint import load_noc_state, read_checkpoint_manifest, save_noc_state
from .connectivity import (
    ConnectivityStats,
    disconnected_fraction,
    monte_carlo_disconnection,
    same_row_col_share,
)
from .dualnetwork import DualNetwork, NetworkId
from .faults import FaultMap, random_fault_map
from .kernel import KernelRouter, NetworkAssignment
from .loadlatency import LoadLatencyCurve, LoadPoint, measure_load_latency
from .oddeven import (
    compare_routing_schemes,
    odd_even_connectivity,
    odd_even_path,
)
from .packets import Packet, PacketKind
from .remap import (
    SubGrid,
    best_logical_grid,
    largest_fault_free_rectangle,
    row_column_deletion,
)
from .routing import RoutingPolicy, build_port_lut, xy_path, yx_path
from .simulator import ENGINES, NocSimulator, SimulationReport
from .topology import MeshTopology
from .vectorsim import BatchNocSimulator, VectorNocSimulator, simulate_batch

__all__ = [
    "AdaptiveNocSimulator",
    "AdaptiveRouter",
    "ConnectivityStats",
    "disconnected_fraction",
    "monte_carlo_disconnection",
    "same_row_col_share",
    "DualNetwork",
    "ENGINES",
    "NetworkId",
    "FaultMap",
    "random_fault_map",
    "KernelRouter",
    "LoadLatencyCurve",
    "LoadPoint",
    "measure_load_latency",
    "NetworkAssignment",
    "compare_routing_schemes",
    "odd_even_connectivity",
    "odd_even_path",
    "Packet",
    "SubGrid",
    "best_logical_grid",
    "largest_fault_free_rectangle",
    "row_column_deletion",
    "PacketKind",
    "RoutingPolicy",
    "build_port_lut",
    "xy_path",
    "yx_path",
    "NocSimulator",
    "SimulationReport",
    "MeshTopology",
    "BatchNocSimulator",
    "VectorNocSimulator",
    "simulate_batch",
    "load_noc_state",
    "read_checkpoint_manifest",
    "save_noc_state",
]
