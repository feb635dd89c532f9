"""Experiment-engine benchmark: serial vs parallel Monte-Carlo throughput.

Times the Fig. 6 disconnection Monte Carlo on the full 32x32 wafer at
``workers=1`` (the serial reference) and ``workers=4``, verifies the two
runs produce **identical statistics** (the engine's seeding contract),
and records the wall-clock speedup.

A second case sweeps 10 fault counts at ``workers=2`` on one engine: it
asserts that the whole sweep started exactly one worker pool and matched
``workers=1``, and prints the per-run dispatch overhead (run wall time
minus trial time / workers) for information only.

Runnable two ways::

    python benchmarks/bench_engine.py            # standalone summary
    pytest benchmarks/bench_engine.py -s         # under the bench harness

The ≥2x speedup assertion only applies on machines with ≥4 CPUs — on a
single-core container the parallel run cannot beat the serial one, but
the determinism check (the part that guards correctness) always runs.
"""

import contextlib
import os
import statistics
import time

import pytest

import repro.engine.core as engine_core
from repro.config import SystemConfig
from repro.engine import ExperimentEngine, ThroughputObserver
from repro.noc.connectivity import monte_carlo_disconnection

from conftest import print_series

FAULT_COUNTS = [5]
TRIALS = 16
SEED = 6
PARALLEL_WORKERS = 4

SWEEP_FAULT_COUNTS = list(range(1, 11))
SWEEP_TRIALS = 10
SWEEP_WORKERS = 2


def _run(workers: int) -> tuple[list, float]:
    """One timed Fig. 6 sweep at a worker count (cache disabled)."""
    start = time.perf_counter()
    stats = monte_carlo_disconnection(
        SystemConfig(),
        fault_counts=FAULT_COUNTS,
        trials=TRIALS,
        seed=SEED,
        workers=workers,
    )
    return stats, time.perf_counter() - start


def measure() -> dict:
    """Serial vs parallel timings plus the determinism check."""
    serial_stats, serial_s = _run(1)
    parallel_stats, parallel_s = _run(PARALLEL_WORKERS)

    serial_key = [
        (s.fault_count, s.mean_single_pct, s.mean_dual_pct) for s in serial_stats
    ]
    parallel_key = [
        (s.fault_count, s.mean_single_pct, s.mean_dual_pct) for s in parallel_stats
    ]
    return {
        "identical": serial_key == parallel_key,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s > 0 else float("inf"),
        "cpus": os.cpu_count() or 1,
        "stats": serial_key,
    }


@contextlib.contextmanager
def _count_pools():
    """Collect every worker pool the engine starts inside the block."""
    started = []
    real = engine_core.ProcessPoolExecutor

    class _CountingPool(real):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    engine_core.ProcessPoolExecutor = _CountingPool
    try:
        yield started
    finally:
        engine_core.ProcessPoolExecutor = real


def measure_sweep() -> dict:
    """A 10-fault-count Fig. 6 sweep on one 2-worker engine."""
    kwargs = {"fault_counts": SWEEP_FAULT_COUNTS, "trials": SWEEP_TRIALS, "seed": SEED}
    serial = monte_carlo_disconnection(SystemConfig(), **kwargs, workers=1)
    observer = ThroughputObserver()
    with _count_pools() as pools:
        with ExperimentEngine(workers=SWEEP_WORKERS, observers=[observer]) as engine:
            parallel = monte_carlo_disconnection(SystemConfig(), **kwargs, engine=engine)
    dispatch_s = [run.wall_s - run.busy_s / SWEEP_WORKERS for run in observer.runs]
    return {
        "identical": serial == parallel,
        "pools": len(pools),
        "runs": len(observer.runs),
        "first_dispatch_s": dispatch_s[0],
        "median_dispatch_s": statistics.median(dispatch_s[1:]),
    }


def test_engine_parallel_determinism_and_speedup(benchmark):
    result = benchmark.pedantic(measure, rounds=1, iterations=1)

    print_series(
        f"Engine: Fig. 6 MC, {TRIALS} trials, serial vs {PARALLEL_WORKERS} workers",
        [
            ("serial", f"{result['serial_s']:.2f}s"),
            (f"{PARALLEL_WORKERS} workers", f"{result['parallel_s']:.2f}s"),
            ("speedup", f"{result['speedup']:.2f}x"),
            ("identical statistics", result["identical"]),
        ],
    )
    benchmark.extra_info["measured"] = {
        k: result[k] for k in ("serial_s", "parallel_s", "speedup", "cpus")
    }

    assert result["identical"], "worker count changed the statistics"
    if result["cpus"] >= PARALLEL_WORKERS:
        assert result["speedup"] >= 2.0, (
            f"expected >=2x at {PARALLEL_WORKERS} workers on "
            f"{result['cpus']} CPUs, got {result['speedup']:.2f}x"
        )
    else:
        pytest.skip(
            f"only {result['cpus']} CPU(s): speedup target needs "
            f">={PARALLEL_WORKERS}; determinism verified"
        )


def test_engine_observability_counters(benchmark):
    """The throughput observer sees every trial exactly once."""

    def run() -> ThroughputObserver:
        observer = ThroughputObserver()
        engine = ExperimentEngine(workers=1, observers=[observer])
        monte_carlo_disconnection(
            SystemConfig(rows=8, cols=8),
            fault_counts=[2, 4],
            trials=10,
            seed=1,
            engine=engine,
        )
        return observer

    observer = benchmark.pedantic(run, rounds=1, iterations=1)
    assert observer.total_trials == 20
    assert len(observer.runs) == 2
    assert observer.total_busy_s > 0.0


def test_engine_sweep_shares_one_pool(benchmark):
    """Every run of a fault-count sweep reuses the engine's one pool."""
    result = benchmark.pedantic(measure_sweep, rounds=1, iterations=1)
    print_series(
        f"Engine: Fig. 6 sweep over {len(SWEEP_FAULT_COUNTS)} fault counts, "
        f"{SWEEP_WORKERS} workers",
        [
            ("pools started", result["pools"]),
            ("first-run dispatch", f"{result['first_dispatch_s'] * 1e3:.1f} ms"),
            ("later-run dispatch (median)", f"{result['median_dispatch_s'] * 1e3:.1f} ms"),
            ("identical statistics", result["identical"]),
        ],
    )
    assert result["runs"] == len(SWEEP_FAULT_COUNTS)
    assert result["pools"] == 1, f"sweep started {result['pools']} pools, expected 1"
    assert result["identical"], "worker count changed the sweep statistics"


def main() -> int:
    sweep = measure_sweep()
    print(
        f"Fig. 6 sweep, 32x32 wafer, {SWEEP_TRIALS} trials at each of "
        f"{len(SWEEP_FAULT_COUNTS)} fault counts, workers={SWEEP_WORKERS}"
    )
    print(f"  pools started:               {sweep['pools']}")
    print(f"  first-run dispatch:          {sweep['first_dispatch_s'] * 1e3:.1f} ms"
          " (includes starting the pool)")
    print(f"  later-run dispatch (median): {sweep['median_dispatch_s'] * 1e3:.1f} ms")
    print(f"  statistics identical:        {sweep['identical']}")
    if sweep["pools"] != 1 or not sweep["identical"]:
        return 1

    result = measure()
    print(f"Fig. 6 Monte Carlo, 32x32 wafer, {TRIALS} trials at {FAULT_COUNTS} faults")
    print(f"  serial (workers=1):          {result['serial_s']:.2f}s")
    print(f"  parallel (workers={PARALLEL_WORKERS}):        {result['parallel_s']:.2f}s")
    print(f"  speedup:                     {result['speedup']:.2f}x on {result['cpus']} CPU(s)")
    print(f"  statistics identical:        {result['identical']}")
    if not result["identical"]:
        return 1
    if result["cpus"] >= PARALLEL_WORKERS and result["speedup"] < 2.0:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
