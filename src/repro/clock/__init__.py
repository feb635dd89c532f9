"""Waferscale clock generation and distribution (paper Section IV)."""

from .cdc import (
    ForwardedClockQuality,
    crossing_latency_cycles,
    required_fifo_depth,
    worst_chain_analysis,
)
from .dcd import DccUnit, DutyCycleTracker, tiles_until_clock_dies
from .forwarding import (
    ClockSource,
    ForwardingResult,
    TileClockState,
    simulate_clock_setup,
)
from .passive_cdn import PassiveCdnModel
from .placement import (
    best_single_generator,
    forwarding_depths,
    greedy_generator_set,
)
from .resiliency import (
    clock_coverage_theorem_holds,
    monte_carlo_clock_coverage,
)

__all__ = [
    "ForwardedClockQuality",
    "crossing_latency_cycles",
    "required_fifo_depth",
    "worst_chain_analysis",
    "DccUnit",
    "DutyCycleTracker",
    "tiles_until_clock_dies",
    "ClockSource",
    "ForwardingResult",
    "TileClockState",
    "simulate_clock_setup",
    "PassiveCdnModel",
    "best_single_generator",
    "forwarding_depths",
    "greedy_generator_set",
    "clock_coverage_theorem_holds",
    "monte_carlo_clock_coverage",
]
