"""Collective-workload benchmark: engine throughput + batch dispatch.

Compiles ring all-reduce and all-to-all schedules on the full 32x32
wafer with a faulted map, drives them through the reference and vector
NoC engines (verifying bit-identical reports and a passing delivery
oracle on every run), then measures batched vector dispatch against
individual vector runs over the same injection window.  The acceptance floor is
the batch path: amortising trial fan-out across one struct-of-arrays
step loop must stay >= BATCH_SPEEDUP_FLOOR faster than solo vector
runs, and every oracle must pass.

Runnable two ways::

    python benchmarks/bench_collectives.py             # writes BENCH_collectives.json
    python benchmarks/bench_collectives.py --out path.json --scale 0.5
    pytest benchmarks/bench_collectives.py -s          # under the bench harness
"""

import argparse
import json
import time

from repro.config import SystemConfig
from repro.noc.faults import random_fault_map
from repro.workloads.collectives import (
    CollectiveSpec,
    achieved_bandwidth,
    compile_noc,
    run_noc_collective,
    run_noc_collective_batch,
)

from conftest import print_series

ROWS = COLS = 32
SEED = 1
FAULTS = 8
#: (pattern label, spec) — sized so each vector run finishes in < 1 s
#: (the reference engine takes ~1-2 minutes on ring all-reduce).
WORKLOADS = (
    ("ring-all-reduce", CollectiveSpec(
        pattern="ring-all-reduce", ranks=64, segments=4, seed=SEED)),
    ("all-to-all", CollectiveSpec(pattern="all-to-all", ranks=32, seed=SEED)),
)
BATCH_TRIALS = 8
BATCH_SPEEDUP_FLOOR = 1.5   # batched vector vs solo vector, same window


def _solo(coll, engine, run_cycles=None):
    start = time.perf_counter()
    report, checks = run_noc_collective(coll, engine=engine, run_cycles=run_cycles)
    return time.perf_counter() - start, report, checks


def measure(scale: float = 1.0) -> dict:
    """Benchmark each workload on both engines, then batch dispatch."""
    cfg = SystemConfig(rows=ROWS, cols=COLS)
    fmap = random_fault_map(cfg, FAULTS, rng=SEED)
    points = []
    for label, spec in WORKLOADS:
        coll = compile_noc(cfg, fmap, spec)
        ref_s, ref_report, checks = _solo(coll, "reference")
        vector_s, vector_report, _ = _solo(coll, "vector")
        if ref_report != vector_report:
            raise AssertionError(
                f"engines diverged on {label}: {ref_report} != {vector_report}"
            )
        points.append(
            {
                "label": label,
                "ranks": spec.ranks,
                "packets": coll.packets,
                "detoured_transfers": coll.detoured_transfers,
                "cycles": ref_report.cycles,
                "bandwidth_words_per_cycle": achieved_bandwidth(coll, ref_report),
                "oracle_checks": checks,
                "reference_s": ref_s,
                "vector_s": vector_s,
                "reference_cycles_per_s": ref_report.cycles / ref_s,
                "vector_cycles_per_s": vector_report.cycles / vector_s,
            }
        )

    # Batch dispatch: one vector step loop over BATCH_TRIALS fault maps
    # vs the same trials run individually over the shared window.
    trials = max(2, int(BATCH_TRIALS * scale))
    spec = WORKLOADS[0][1]
    colls = [
        compile_noc(cfg, random_fault_map(cfg, 2 * t, rng=100 + t), spec)
        for t in range(trials)
    ]
    window = max(c.last_cycle for c in colls) + 1
    start = time.perf_counter()
    solo_reports = [
        _solo(c, "vector", run_cycles=window)[1] for c in colls
    ]
    solo_s = time.perf_counter() - start
    start = time.perf_counter()
    batch_reports = run_noc_collective_batch(colls)
    batch_s = time.perf_counter() - start
    if batch_reports != solo_reports:
        raise AssertionError("batched reports diverged from individual runs")
    batch = {
        "trials": trials,
        "window_cycles": window,
        "solo_vector_s": solo_s,
        "batch_s": batch_s,
        "batch_speedup": solo_s / batch_s,
    }
    ok = batch["batch_speedup"] >= BATCH_SPEEDUP_FLOOR and all(
        p["oracle_checks"] > 0 for p in points
    )
    return {
        "bench": "collectives",
        "config": {"rows": ROWS, "cols": COLS, "faults": FAULTS, "seed": SEED},
        "thresholds": {"batch_speedup": BATCH_SPEEDUP_FLOOR},
        "reports_identical": True,
        "points": points,
        "batch": batch,
        "ok": ok,
    }


def _rows(result: dict) -> list[tuple]:
    rows = [
        (
            f"{p['label']:<16}",
            f"ref {p['reference_cycles_per_s']:9.1f} c/s",
            f"vector {p['vector_cycles_per_s']:9.1f} c/s",
            f"bw {p['bandwidth_words_per_cycle']:6.3f} w/c",
            f"{p['oracle_checks']} checks",
        )
        for p in result["points"]
    ]
    batch = result["batch"]
    rows.append(
        (
            f"{'batch dispatch':<16}",
            f"{batch['trials']} trials",
            f"solo {batch['solo_vector_s']:.3f}s",
            f"batch {batch['batch_s']:.3f}s",
            f"{batch['batch_speedup']:5.2f}x",
        )
    )
    return rows


def test_collective_batch_dispatch(benchmark):
    result = benchmark.pedantic(measure, args=(0.5,), rounds=1, iterations=1)
    print_series(f"Collectives, {ROWS}x{COLS} faulted wafer", _rows(result))
    benchmark.extra_info["measured"] = {
        "batch_speedup": result["batch"]["batch_speedup"]
    }
    assert result["reports_identical"]
    assert result["ok"], (
        f"batch speedup {result['batch']['batch_speedup']:.2f}x below floor "
        f"{BATCH_SPEEDUP_FLOOR}x"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_collectives.json", help="result file path"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="scale the batch trial count (< 1 for a quicker run)",
    )
    args = parser.parse_args()
    result = measure(args.scale)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(f"Collectives, {ROWS}x{COLS} faulted wafer -> {args.out}")
    for row in _rows(result):
        print("   ", *row)
    print(
        f"  floor: {BATCH_SPEEDUP_FLOOR}x batch speedup -> "
        f"{'OK' if result['ok'] else 'REGRESSED'}"
    )
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
