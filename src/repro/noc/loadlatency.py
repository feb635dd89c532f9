"""Load-latency characterisation of the dual-DoR mesh.

The canonical way to evaluate an interconnect: sweep the injection rate
and record average packet latency until the network saturates.  The paper
quotes raw bandwidth (Table I); this module produces the curves behind
such a claim on the cycle-level simulator — average/percentile latency
versus offered load, the saturation point, and the sustained throughput
at saturation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SystemConfig
from ..errors import NetworkError
from typing import TYPE_CHECKING

from .faults import FaultMap
from .simulator import NocSimulator

if TYPE_CHECKING:   # pragma: no cover - import cycle guard
    from ..workloads.traffic import TrafficPattern


@dataclass(frozen=True)
class LoadPoint:
    """Measurements at one injection rate."""

    injection_rate: float       # packets / tile / cycle offered
    mean_latency: float
    p99_latency: float
    delivered: int
    sim_cycles: int
    saturated: bool

    @property
    def throughput(self) -> float:
        """Delivered packets per cycle."""
        return self.delivered / self.sim_cycles if self.sim_cycles else 0.0


@dataclass
class LoadLatencyCurve:
    """The full sweep."""

    config: SystemConfig
    pattern: "TrafficPattern"
    points: list[LoadPoint]

    def saturation_rate(self) -> float:
        """Smallest injection rate at which the network saturated.

        Returns ``inf`` when no swept point saturated (the knee lies
        beyond the sweep).
        """
        for point in self.points:
            if point.saturated:
                return point.injection_rate
        return float("inf")

    def zero_load_latency(self) -> float:
        """Latency at the lightest offered load."""
        if not self.points:
            raise NetworkError("empty curve")
        return self.points[0].mean_latency

    def rows(self) -> list[tuple]:
        """Table rows for printing."""
        return [
            (
                f"{p.injection_rate:.3f}",
                f"{p.mean_latency:.1f}",
                f"{p.p99_latency:.0f}",
                f"{p.throughput:.3f}",
                "SAT" if p.saturated else "",
            )
            for p in self.points
        ]


def measure_load_latency(
    config: SystemConfig,
    pattern: "TrafficPattern | None" = None,
    rates: list[float] | None = None,
    warm_cycles: int = 60,
    fault_map: FaultMap | None = None,
    seed: int = 0,
    latency_saturation_factor: float = 8.0,
    engine: str = "reference",
) -> LoadLatencyCurve:
    """Sweep injection rates and measure delivered latency.

    A point is marked saturated when its mean latency exceeds
    ``latency_saturation_factor`` times the zero-load latency, or the
    network failed to drain in a bounded horizon — the standard knee
    detection for load-latency curves.

    ``engine`` selects the simulation core (``"reference"`` or
    ``"vector"``; ``"fast"`` is an alias of ``"reference"``); both
    produce identical curves.  Each swept rate is one independent run.
    """
    from ..workloads.traffic import TrafficPattern, drive_schedule, traffic_schedule

    if pattern is None:
        pattern = TrafficPattern.UNIFORM
    if rates is None:
        rates = [0.01, 0.02, 0.05, 0.1, 0.2, 0.3]
    if not rates:
        raise NetworkError("rates must name at least one injection rate")
    if any(not 0 < r <= 1 for r in rates):
        raise NetworkError("rates must be in (0, 1]")
    swept = sorted(rates)

    reports, sat_flags = [], []
    for rate in swept:
        sim = NocSimulator(config, fault_map=fault_map, engine=engine)
        schedule = traffic_schedule(config, pattern, rate, warm_cycles, seed=seed)
        drive_schedule(sim, schedule, warm_cycles)
        saturated = False
        try:
            sim.drain(max_cycles=20_000)
        except NetworkError:
            saturated = True
        reports.append(sim.report())
        sat_flags.append(saturated)

    points: list[LoadPoint] = []
    zero_load: float | None = None
    for rate, report, saturated in zip(swept, reports, sat_flags):
        mean_latency = report.mean_latency
        if zero_load is None and not saturated:
            zero_load = mean_latency
        if zero_load is not None and mean_latency > latency_saturation_factor * zero_load:
            saturated = True
        points.append(
            LoadPoint(
                injection_rate=rate,
                mean_latency=mean_latency,
                p99_latency=report.p99_latency,
                delivered=report.delivered,
                sim_cycles=report.cycles,
                saturated=saturated,
            )
        )
    return LoadLatencyCurve(config=config, pattern=pattern, points=points)

