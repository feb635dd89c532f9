"""Si-IF waferscale substrate design kit (paper Section VIII)."""

from .connectors import ConnectorPlan, ConnectorTechnology, plan_connectors
from .degraded import DegradedModeReport, degraded_mode_report
from .drc import DrcReport, run_drc
from .fanout import EdgeFanout, plan_edge_fanout
from .netlist import InterChipletNet, NetClass, Netlist, extract_netlist
from .router import RoutedWire, RoutingResult, SubstrateRouter, Wires
from .stack import LayerStack, MetalLayer, default_stack
from .stitching import stitch_geometry

__all__ = [
    "ConnectorPlan",
    "ConnectorTechnology",
    "plan_connectors",
    "DegradedModeReport",
    "degraded_mode_report",
    "DrcReport",
    "run_drc",
    "EdgeFanout",
    "plan_edge_fanout",
    "InterChipletNet",
    "NetClass",
    "Netlist",
    "extract_netlist",
    "RoutedWire",
    "RoutingResult",
    "SubstrateRouter",
    "Wires",
    "LayerStack",
    "MetalLayer",
    "default_stack",
    "stitch_geometry",
]
