"""Parallel experiment engine for Monte-Carlo and sweep studies.

One shared executor behind every repeated-experiment analysis in the
library: deterministic per-trial seed streams (identical statistics at
any worker count), one reusable process pool per engine with chunked
dispatch, an on-disk result cache keyed by ``(experiment, config, params, seed,
trials)``, and observability hooks.

Quick start::

    from repro import SystemConfig
    from repro.engine import ExperimentEngine
    from repro.noc.connectivity import monte_carlo_disconnection

    stats = monte_carlo_disconnection(
        SystemConfig(), fault_counts=[1, 5, 10], trials=100,
        seed=0, workers=4, cache=True,
    )

See ``docs/engine.md`` for the execution model.
"""

from .adaptive import CIStop
from .cache import ResultCache, cache_key, canonicalize, resolve_cache
from .core import (
    ExperimentEngine,
    RunResult,
    TrialContext,
    default_workers,
    engine_scope,
)
from .observe import (
    EngineObserver,
    RunRecord,
    TelemetryObserver,
    ThroughputObserver,
)
from .seeding import as_seed_sequence, seed_fingerprint, spawn_trial_seeds

__all__ = [
    "CIStop",
    "ExperimentEngine",
    "RunResult",
    "TrialContext",
    "default_workers",
    "engine_scope",
    "ResultCache",
    "cache_key",
    "canonicalize",
    "resolve_cache",
    "EngineObserver",
    "RunRecord",
    "TelemetryObserver",
    "ThroughputObserver",
    "as_seed_sequence",
    "seed_fingerprint",
    "spawn_trial_seeds",
]
