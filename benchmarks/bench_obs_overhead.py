"""Telemetry overhead benchmark: the disabled path must stay ~free.

The observability layer's core promise is that instrumented code with
*no* telemetry attached costs nothing measurable: subsystems keep a
single ``is None`` handle check in their hot loops.  This bench drives
the cycle-level NoC simulator three ways over identical traffic —

* **baseline** — no telemetry argument, NULL ambient (the default every
  library user gets);
* **disabled** — an explicit ``Telemetry.disabled()`` attached (the
  instrumented-but-off path);
* **enabled** — a live ``Telemetry`` recording metrics and trace spans —

and asserts the disabled path is within 5% of baseline (with a small
absolute floor so sub-millisecond jitter on tiny runs cannot flake the
build).  Baseline and disabled runs are timed back to back in pairs,
and the verdict is the median of the per-pair ratios, so a host that
changes speed between pairs moves both runs of a pair alike.  The
enabled path is reported for information; it pays for real recording
and has no cap.

A second case prices the *worker capture/merge* path: the experiment
engine runs a pure-compute trial function across a process pool twice —
telemetry disabled, then enabled (each worker captures a fresh
:class:`~repro.obs.snapshot.TelemetrySnapshot`, the parent merges) —
and asserts the merged run stays within 10% of the disabled run, timed
in pairs and judged on the median per-pair ratio like the first case.
That budget is the committed floor in ``BENCH_obs.json``.

Runnable three ways::

    python benchmarks/bench_obs_overhead.py                 # summary
    python benchmarks/bench_obs_overhead.py --out B.json    # + document
    pytest benchmarks/bench_obs_overhead.py -s              # bench harness
"""

import argparse
import json
import statistics
import time

import numpy as np

from repro.config import SystemConfig
from repro.engine import ExperimentEngine
from repro.noc.dualnetwork import NetworkId
from repro.noc.simulator import NocSimulator
from repro.obs import Telemetry, resolve_telemetry
from repro.workloads.traffic import TrafficPattern, generate_traffic

from conftest import print_series

ROWS = COLS = 8
CYCLES = 150
RATE = 0.08
SEED = 2
PAIRS = 9                       # interleaved pairs per case; the median ratio counts
MAX_OVERHEAD = 0.05             # disabled path within 5% of baseline
JITTER_FLOOR_S = 0.010          # absolute slack for sub-ms timing noise

MERGE_TRIALS = 64               # engine trials per capture/merge run
MERGE_WORKERS = 2               # pool size (modest: CI runners are small)
MERGE_MAX_OVERHEAD = 0.10       # merged run within 10% of disabled run


def _drive(telemetry: Telemetry | None) -> float:
    """One full simulation (inject, run, drain, report); returns seconds."""
    cfg = SystemConfig(rows=ROWS, cols=COLS)
    traffic = generate_traffic(cfg, TrafficPattern.UNIFORM, RATE, CYCLES, seed=SEED)
    start = time.perf_counter()
    sim = NocSimulator(cfg, telemetry=telemetry)
    for cycle, packet in traffic:
        while sim.cycle < cycle:
            sim.step()
        sim.inject(packet, network=NetworkId.XY)
    sim.run(max(0, CYCLES - sim.cycle))
    sim.drain()
    sim.report()
    return time.perf_counter() - start


def _paired(run, modes: dict, pairs: int, budget: float, floor_s: float):
    """Time ``run(factory())`` for each mode, ``pairs`` times over.

    Each pair times the first two modes back to back (their order
    alternating between pairs), so a host that changes speed between
    pairs moves both runs of a pair alike; any further mode runs after
    the pair, for information.  The overhead is the median over pairs
    of ``second / first - 1``; the budget holds when that median ratio
    is at most ``1 + budget`` plus ``floor_s`` relative to the median
    first-mode time.  Returns each mode's best seconds, the overhead
    and the verdict.
    """
    names = list(modes)
    best = dict.fromkeys(names, float("inf"))
    ratios = []
    firsts = []
    for pair in range(pairs):
        order = names[:2] if pair % 2 == 0 else names[1::-1]
        times = {name: run(modes[name]()) for name in order + names[2:]}
        for name, seconds in times.items():
            best[name] = min(best[name], seconds)
        ratios.append(times[names[1]] / times[names[0]])
        firsts.append(times[names[0]])
    ratio = statistics.median(ratios)
    allowed = 1 + budget + floor_s / statistics.median(firsts)
    return best, ratio - 1, ratio <= allowed


def measure() -> dict:
    """Paired baseline/disabled timings plus the enabled path."""
    modes = {
        "baseline": lambda: None,
        "disabled": Telemetry.disabled,
        "enabled": Telemetry,
    }
    best, overhead, ok = _paired(
        _drive, modes, PAIRS, MAX_OVERHEAD, JITTER_FLOOR_S
    )
    return {
        "baseline_s": best["baseline"],
        "disabled_s": best["disabled"],
        "enabled_s": best["enabled"],
        "disabled_overhead": overhead,
        "within_budget": ok,
    }


def _merge_trial(ctx) -> float:
    """Pure-compute trial that records a little telemetry when enabled.

    The work is deliberately *not* a NoC simulation: the point is to
    price the capture/merge plumbing itself (fresh per-worker telemetry,
    snapshot pickling, parent-side merge), so the trial body must be
    cheap-but-real compute with only a few recording calls riding on it.
    """
    data = ctx.rng.random(16384)
    acc = 0.0
    for _ in range(24):
        acc += float(np.sqrt(data * data + 1.0).sum())
    telemetry = resolve_telemetry()
    telemetry.metrics.counter("bench.merge_trials").inc()
    telemetry.metrics.histogram("bench.merge_value").observe(acc)
    return acc


def _engine_run_seconds(telemetry: Telemetry) -> float:
    """One pooled engine run of the merge trial; returns wall seconds."""
    engine = ExperimentEngine(
        workers=MERGE_WORKERS, cache=None, telemetry=telemetry
    )
    start = time.perf_counter()
    engine.run(
        _merge_trial,
        experiment="bench.obs_merge",
        trials=MERGE_TRIALS,
        seed=7,
    )
    return time.perf_counter() - start


def measure_merge() -> dict:
    """Paired pooled-run timings: telemetry disabled vs captured+merged."""
    modes = {"disabled": Telemetry.disabled, "merged": Telemetry}
    best, overhead, ok = _paired(
        _engine_run_seconds, modes, PAIRS, MERGE_MAX_OVERHEAD, JITTER_FLOOR_S
    )
    return {
        "merge_disabled_s": best["disabled"],
        "merge_merged_s": best["merged"],
        "merge_overhead": overhead,
        "merge_within_budget": ok,
    }


def test_disabled_telemetry_overhead(benchmark):
    result = benchmark.pedantic(measure, rounds=1, iterations=1)

    print_series(
        f"NoC sim {ROWS}x{COLS}, {CYCLES} cycles: telemetry overhead",
        [
            ("baseline (no telemetry)", f"{result['baseline_s'] * 1e3:.1f}ms"),
            ("instrumented, disabled", f"{result['disabled_s'] * 1e3:.1f}ms"),
            ("instrumented, enabled", f"{result['enabled_s'] * 1e3:.1f}ms"),
            ("disabled overhead (paired median)", f"{result['disabled_overhead']:+.1%}"),
        ],
    )
    benchmark.extra_info["measured"] = {
        k: result[k] for k in ("baseline_s", "disabled_s", "enabled_s")
    }

    assert result["within_budget"], (
        f"disabled telemetry cost {result['disabled_overhead']:+.1%} "
        f"(budget {MAX_OVERHEAD:.0%})"
    )


def test_worker_merge_overhead(benchmark):
    result = benchmark.pedantic(measure_merge, rounds=1, iterations=1)

    print_series(
        f"engine x{MERGE_WORKERS} workers, {MERGE_TRIALS} trials: "
        "capture/merge overhead",
        [
            ("telemetry disabled", f"{result['merge_disabled_s'] * 1e3:.1f}ms"),
            ("captured + merged", f"{result['merge_merged_s'] * 1e3:.1f}ms"),
            ("merge overhead (paired median)", f"{result['merge_overhead']:+.1%}"),
        ],
    )
    benchmark.extra_info["measured"] = {
        k: result[k] for k in ("merge_disabled_s", "merge_merged_s")
    }

    assert result["merge_within_budget"], (
        f"worker capture/merge cost {result['merge_overhead']:+.1%} "
        f"(budget {MERGE_MAX_OVERHEAD:.0%})"
    )


def build_document(disabled: dict, merge: dict) -> dict:
    """The committable ``BENCH_obs.json`` document for both cases."""
    return {
        "bench": "obs",
        "config": {
            "noc_rows": ROWS,
            "noc_cols": COLS,
            "noc_cycles": CYCLES,
            "noc_rate": RATE,
            "merge_trials": MERGE_TRIALS,
            "merge_workers": MERGE_WORKERS,
        },
        "thresholds": {
            "disabled_max_overhead": MAX_OVERHEAD,
            "merge_max_overhead": MERGE_MAX_OVERHEAD,
        },
        "measured": {
            "baseline_s": disabled["baseline_s"],
            "disabled_s": disabled["disabled_s"],
            "enabled_s": disabled["enabled_s"],
            "disabled_overhead": disabled["disabled_overhead"],
            "merge_disabled_s": merge["merge_disabled_s"],
            "merge_merged_s": merge["merge_merged_s"],
            "merge_overhead": merge["merge_overhead"],
        },
        "ok": disabled["within_budget"] and merge["merge_within_budget"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="also write the results as a BENCH_obs.json document",
    )
    args = parser.parse_args(argv)

    result = measure()
    print(f"NoC sim {ROWS}x{COLS}, {CYCLES} cycles + drain, {PAIRS} interleaved pairs")
    print(f"  baseline (no telemetry):   {result['baseline_s'] * 1e3:.1f}ms")
    print(f"  instrumented, disabled:    {result['disabled_s'] * 1e3:.1f}ms "
          f"(median paired overhead {result['disabled_overhead']:+.1%})")
    print(f"  instrumented, enabled:     {result['enabled_s'] * 1e3:.1f}ms")
    print(f"  disabled-path budget:      {MAX_OVERHEAD:.0%} -> "
          f"{'OK' if result['within_budget'] else 'EXCEEDED'}")

    merge = measure_merge()
    print(f"engine, {MERGE_WORKERS} workers, {MERGE_TRIALS} trials, "
          f"{PAIRS} interleaved pairs")
    print(f"  telemetry disabled:        {merge['merge_disabled_s'] * 1e3:.1f}ms")
    print(f"  captured + merged:         {merge['merge_merged_s'] * 1e3:.1f}ms "
          f"(median paired overhead {merge['merge_overhead']:+.1%})")
    print(f"  capture/merge budget:      {MERGE_MAX_OVERHEAD:.0%} -> "
          f"{'OK' if merge['merge_within_budget'] else 'EXCEEDED'}")

    if args.out:
        document = build_document(result, merge)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")

    return 0 if result["within_budget"] and merge["merge_within_budget"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
