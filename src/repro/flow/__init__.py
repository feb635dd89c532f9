"""Top-level design-flow orchestration and system reporting."""

from .bringup import (
    BringupReport,
    fault_map_to_json,
    run_bringup,
)
from .characterize import (
    ShmooResult,
    characterization_report,
    characterize,
)
from .designer import DesignFlowResult, run_design_flow
from .report import SystemReport, table1_report
from .validate import CheckResult, ValidationReport, validate_design

__all__ = [
    "BringupReport",
    "fault_map_to_json",
    "run_bringup",
    "ShmooResult",
    "characterization_report",
    "characterize",
    "DesignFlowResult",
    "run_design_flow",
    "SystemReport",
    "table1_report",
    "CheckResult",
    "ValidationReport",
    "validate_design",
]
