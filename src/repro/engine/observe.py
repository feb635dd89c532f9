"""Observability hooks for experiment runs.

The engine reports three events — run start, trial completion, run end —
to any number of observers.  Observers run in the parent process (trial
completions are delivered as results stream back from the pool), so they
may hold state and talk to the terminal without worrying about worker
isolation.

Since the unified telemetry layer (:mod:`repro.obs`) landed, the
built-in observers keep their state in metrics-registry instruments
rather than private scalars:

* :class:`ThroughputObserver` accumulates into a
  :class:`~repro.obs.metrics.MetricsRegistry` (its own by default, or a
  shared one passed in) under ``engine.throughput.*`` names;
* :class:`TelemetryObserver` bridges the engine events onto a
  :class:`~repro.obs.telemetry.Telemetry` (span per run, counters and a
  trial-time histogram); the engine attaches one automatically whenever
  its telemetry is enabled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..obs.metrics import MetricsRegistry, TIME_BUCKETS_S
from ..obs.telemetry import Telemetry

if TYPE_CHECKING:                       # pragma: no cover
    from .core import RunResult


class EngineObserver:
    """Base observer: every hook is a no-op; subclass what you need."""

    def on_run_start(self, experiment: str, trials: int, workers: int) -> None:
        """A run is about to dispatch ``trials`` trials."""

    def on_trial(self, experiment: str, index: int, elapsed_s: float) -> None:
        """One trial finished (delivered in completion order)."""

    def on_run_end(self, result: "RunResult") -> None:
        """The run finished (including cache hits, with zero trials run)."""


@dataclass
class RunRecord:
    """One run's throughput numbers as seen by :class:`ThroughputObserver`."""

    experiment: str
    trials: int
    workers: int
    started_at: float
    completed: int = 0
    busy_s: float = 0.0
    wall_s: float = 0.0
    from_cache: bool = False

    @property
    def trials_per_second(self) -> float:
        """Completed trials per wall-clock second."""
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def mean_trial_s(self) -> float:
        """Average single-trial compute time (0.0 for cached runs)."""
        return self.busy_s / self.completed if self.completed else 0.0

    def describe(self) -> str:
        """One-line human rendering; cache hits are stated explicitly.

        A fully cached run computes zero trials, so its ``mean_trial_s``
        is necessarily 0 — rather than report a misleading "0 s/trial"
        throughput, the rendering says the values came from the cache.
        """
        if self.from_cache:
            return (
                f"{self.experiment}: {self.trials} trials served from cache "
                f"in {self.wall_s:.3f}s (no trials computed)"
            )
        return (
            f"{self.experiment}: {self.completed}/{self.trials} trials "
            f"in {self.wall_s:.3f}s "
            f"(mean {self.mean_trial_s * 1e3:.2f} ms/trial, "
            f"{self.trials_per_second:.1f} trials/s)"
        )


class ThroughputObserver(EngineObserver):
    """Accumulates per-run timing and throughput counters.

    Aggregate totals live in a :class:`~repro.obs.metrics.
    MetricsRegistry` under ``engine.throughput.*`` — pass a shared
    registry to surface them alongside other telemetry, or let the
    observer keep a private one.  Per-run :class:`RunRecord` entries
    remain available as ``runs``.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.runs: list[RunRecord] = []
        self._c_runs = self.metrics.counter("engine.throughput.runs")
        self._c_cached = self.metrics.counter("engine.throughput.cached_runs")
        self._c_trials = self.metrics.counter("engine.throughput.trials")
        self._c_busy = self.metrics.counter("engine.throughput.busy_seconds")
        self._h_trial = self.metrics.histogram(
            "engine.throughput.trial_seconds", buckets=TIME_BUCKETS_S
        )

    def on_run_start(self, experiment: str, trials: int, workers: int) -> None:
        self._c_runs.inc()
        self.runs.append(
            RunRecord(
                experiment=experiment,
                trials=trials,
                workers=workers,
                started_at=time.perf_counter(),
            )
        )

    def on_trial(self, experiment: str, index: int, elapsed_s: float) -> None:
        record = self.runs[-1]
        record.completed += 1
        record.busy_s += elapsed_s
        self._c_trials.inc()
        self._c_busy.inc(elapsed_s)
        self._h_trial.observe(elapsed_s)

    def on_run_end(self, result: "RunResult") -> None:
        record = self.runs[-1]
        record.wall_s = time.perf_counter() - record.started_at
        record.from_cache = result.from_cache
        if result.from_cache:
            self._c_cached.inc()

    @property
    def total_trials(self) -> int:
        """Trials actually computed (cache hits contribute zero)."""
        return int(self._c_trials.value)

    @property
    def total_busy_s(self) -> float:
        """Total single-trial compute time across every run."""
        return float(self._c_busy.value)

    def summary(self) -> str:
        """Multi-line rendering of every recorded run."""
        return "\n".join(record.describe() for record in self.runs)


class TelemetryObserver(EngineObserver):
    """Bridges engine events onto a telemetry (registry + tracer).

    One instance is attached per run by :class:`~repro.engine.core.
    ExperimentEngine` when its telemetry is enabled: counts runs and
    trials, observes per-trial compute time into a histogram, and wraps
    the run in a wall-clock trace span.
    """

    def __init__(self, telemetry: Telemetry) -> None:
        self.telemetry = telemetry
        metrics = telemetry.metrics
        self._c_runs = metrics.counter("engine.runs")
        self._c_trials = metrics.counter("engine.trials")
        self._h_trial = metrics.histogram(
            "engine.trial_seconds", buckets=TIME_BUCKETS_S
        )
        self._span_name: str | None = None

    def on_run_start(self, experiment: str, trials: int, workers: int) -> None:
        self._c_runs.inc()
        self._span_name = f"engine.run:{experiment}"
        self.telemetry.tracer.begin(
            self._span_name, cat="engine", trials=trials, workers=workers
        )

    def on_trial(self, experiment: str, index: int, elapsed_s: float) -> None:
        self._c_trials.inc()
        self._h_trial.observe(elapsed_s)

    def on_run_end(self, result: "RunResult") -> None:
        if self._span_name is not None:
            self.telemetry.tracer.end(
                self._span_name,
                cat="engine",
                from_cache=result.from_cache,
                elapsed_s=result.elapsed_s,
            )
            self._span_name = None
