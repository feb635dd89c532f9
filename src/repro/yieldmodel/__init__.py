"""Yield and cost analysis: KGD economics, monolithic vs chiplet wafers."""

from .chiplet_yield import (
    DefectModel,
    die_yield,
    known_good_die_rate,
)
from .cost import (
    CostInputs,
    SystemCost,
    chiplet_system_cost,
    cost_comparison,
    monolithic_system_cost,
)
from .lots import BinPolicy, LotReport, pillar_redundancy_lot_comparison, simulate_lot
from .system_yield import (
    SystemYieldComparison,
    compare_monolithic_vs_chiplet,
)

__all__ = [
    "DefectModel",
    "die_yield",
    "known_good_die_rate",
    "CostInputs",
    "SystemCost",
    "chiplet_system_cost",
    "cost_comparison",
    "monolithic_system_cost",
    "BinPolicy",
    "LotReport",
    "pillar_redundancy_lot_comparison",
    "simulate_lot",
    "SystemYieldComparison",
    "compare_monolithic_vs_chiplet",
]
