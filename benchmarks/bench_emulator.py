"""Vector emulator engine: full-wafer workloads and batched trials.

Two gated points plus one informational point, all at the paper's
32x32 (2048-chiplet) array:

* ``wave`` — a :class:`~repro.workloads.waves.FrontierWave` (BFS-shaped
  geometric message wave) on a faulty wafer, ``engine="reference"`` vs
  ``engine="vector"``; stats must be field-for-field identical and the
  vector engine must be >= ``MIN_WORKLOAD_SPEEDUP`` faster.
* ``bfs`` — distributed BFS over a random graph, same comparison and
  floor.  Each engine gets a fresh system and cleared route tables, so
  each cost is the honest cold cost a new fault map pays.
* ``emulate_batch`` — N independent wave trials through one vector
  kernel; per-trial stats must match the individual runs (throughput
  recorded, not gated: per-trial python compute dominates at this size).

The gated floors compare against ``reference`` — the scalar oracle.

Runnable two ways::

    python benchmarks/bench_emulator.py             # writes BENCH_emulator.json
    python benchmarks/bench_emulator.py --out path.json --scale 0.5
    pytest benchmarks/bench_emulator.py -s          # under the bench harness
"""

import argparse
import gc
import json
import time

import numpy as np

from repro.arch.emulator import clear_route_cache
from repro.arch.system import WaferscaleSystem
from repro.arch.vectoremu import emulate_batch
from repro.config import SystemConfig
from repro.noc.faults import random_fault_map
from repro.workloads.bfs import DistributedBfs
from repro.workloads.graphs import random_graph
from repro.workloads.waves import FrontierWave

from conftest import print_series

ROWS = COLS = 32                # the paper's full 2048-chiplet array
SEED = 1

WAVE_FAULTS = 10
WAVE_WIDTH, WAVE_FANOUT, WAVE_TTL = 8, 4, 4
BFS_FAULTS = 10
BFS_NODES = 192
BATCH_TRIALS = 6

MIN_WORKLOAD_SPEEDUP = 8.0      # vector over reference, wave and bfs

STAT_FIELDS = (
    "supersteps",
    "messages_sent",
    "message_hops",
    "detoured_messages",
    "local_compute_cycles",
    "network_cycles",
    "per_step_messages",
)


def _assert_identical(stats_by_engine: dict, context: str) -> None:
    engines = list(stats_by_engine)
    first = stats_by_engine[engines[0]]
    for engine in engines[1:]:
        for field in STAT_FIELDS:
            if getattr(first, field) != getattr(stats_by_engine[engine], field):
                raise AssertionError(
                    f"{context}: {engines[0]} and {engine} disagree on "
                    f"{field}"
                )


def _cold_start() -> None:
    """Drop route tables and collect the previous run's garbage, untimed."""
    clear_route_cache()
    gc.collect()


def _timed_wave(cfg, fmap, width, engine):
    """(seconds, stats) for one cold wave run on a fresh system."""
    _cold_start()
    system = WaferscaleSystem(cfg, fmap)    # fresh KernelRouter memo too
    wave = FrontierWave(
        system, width=width, fanout=WAVE_FANOUT, ttl=WAVE_TTL, seed=SEED
    )
    start = time.perf_counter()
    stats = wave.run(engine=engine)
    return time.perf_counter() - start, stats


def _timed_bfs(cfg, fmap, graph, engine):
    _cold_start()
    system = WaferscaleSystem(cfg, fmap)
    bfs = DistributedBfs(system, graph)
    start = time.perf_counter()
    result = bfs.run(0, engine=engine)
    return time.perf_counter() - start, result


def _warm() -> None:
    """Absorb numpy first-call dispatch before any timed run."""
    cfg = SystemConfig(rows=8, cols=8)
    system = WaferscaleSystem(cfg)
    FrontierWave(system, width=2, fanout=2, ttl=2, seed=0).run(engine="vector")
    clear_route_cache()


def measure(scale: float = 1.0) -> dict:
    """Benchmark the emulator points; verify engine equivalence."""
    _warm()
    cfg = SystemConfig(rows=ROWS, cols=COLS)
    rng = np.random.default_rng(SEED)

    # Point 1: frontier wave, reference vs vector.
    width = max(2, int(WAVE_WIDTH * scale))
    wave_fmap = random_fault_map(cfg, WAVE_FAULTS, rng=rng)
    wave_s, wave_stats = {}, {}
    for engine in ("reference", "vector"):
        wave_s[engine], wave_stats[engine] = _timed_wave(
            cfg, wave_fmap, width, engine
        )
    _assert_identical(wave_stats, "wave")
    wave_point = {
        "label": "wave",
        "width": width,
        "fanout": WAVE_FANOUT,
        "ttl": WAVE_TTL,
        "faults": WAVE_FAULTS,
        "messages": wave_stats["vector"].messages_sent,
        "detoured": wave_stats["vector"].detoured_messages,
        "reference_s": wave_s["reference"],
        "vector_s": wave_s["vector"],
        "speedup_vs_reference": wave_s["reference"] / wave_s["vector"],
    }

    # Point 2: distributed BFS, reference vs vector.
    bfs_fmap = random_fault_map(cfg, BFS_FAULTS, rng=rng)
    graph = random_graph(nodes=max(32, int(BFS_NODES * scale)), seed=SEED)
    bfs_s, bfs_results = {}, {}
    for engine in ("reference", "vector"):
        bfs_s[engine], bfs_results[engine] = _timed_bfs(
            cfg, bfs_fmap, graph, engine
        )
    _assert_identical(
        {e: r.stats for e, r in bfs_results.items()}, "bfs"
    )
    if len({tuple(sorted(r.distance.items())) for r in bfs_results.values()}) != 1:
        raise AssertionError("bfs: engines disagree on distances")
    bfs_point = {
        "label": "bfs",
        "nodes": graph.number_of_nodes(),
        "faults": BFS_FAULTS,
        "messages": bfs_results["vector"].stats.messages_sent,
        "reference_s": bfs_s["reference"],
        "vector_s": bfs_s["vector"],
        "speedup_vs_reference": bfs_s["reference"] / bfs_s["vector"],
    }

    # Point 3 (informational): emulate_batch vs individual vector runs.
    waves = []
    for b in range(BATCH_TRIALS):
        system = WaferscaleSystem(cfg, random_fault_map(cfg, 3, rng=rng))
        waves.append(
            FrontierWave(system, width=3, fanout=2, ttl=3, seed=SEED + b)
        )
    start = time.perf_counter()
    individual = [w.run(engine="vector") for w in waves]
    individual_s = time.perf_counter() - start
    for wave in waves:
        wave.reset()
    start = time.perf_counter()
    batched = emulate_batch(
        [w.system for w in waves],
        [w.compute for w in waves],
        init=[w.seed_sends for w in waves],
    )
    batched_s = time.perf_counter() - start
    for b, (got, want) in enumerate(zip(batched, individual)):
        _assert_identical({"batched": got, "individual": want}, f"batch[{b}]")
    batch_point = {
        "label": "emulate_batch",
        "trials": BATCH_TRIALS,
        "individual_s": individual_s,
        "batched_s": batched_s,
        "throughput_ratio": individual_s / batched_s,
    }

    ok = (
        wave_point["speedup_vs_reference"] >= MIN_WORKLOAD_SPEEDUP
        and bfs_point["speedup_vs_reference"] >= MIN_WORKLOAD_SPEEDUP
    )
    return {
        "bench": "emulator",
        "config": {
            "rows": ROWS,
            "cols": COLS,
            "chiplets": 2 * ROWS * COLS,
            "seed": SEED,
        },
        "thresholds": {
            "workload_speedup_vs_reference": MIN_WORKLOAD_SPEEDUP,
        },
        "stats_identical": True,
        "points": [wave_point, bfs_point, batch_point],
        "ok": ok,
    }


def _rows(result: dict) -> list[tuple]:
    wave, bfs, batch = result["points"]
    return [
        (
            "wave              ",
            f"ref {wave['reference_s']:7.3f}s",
            f"vector {wave['vector_s']:7.3f}s",
            f"{wave['speedup_vs_reference']:6.1f}x",
        ),
        (
            "bfs               ",
            f"ref {bfs['reference_s']:7.3f}s",
            f"vector {bfs['vector_s']:7.3f}s",
            f"{bfs['speedup_vs_reference']:6.1f}x",
        ),
        (
            f"emulate_batch x{batch['trials']} ",
            f"solo {batch['individual_s']:7.3f}s",
            f"batched {batch['batched_s']:6.3f}s",
            f"{batch['throughput_ratio']:6.2f}x",
        ),
    ]


def test_emulator_vector_speedup(benchmark):
    result = benchmark.pedantic(measure, args=(0.5,), rounds=1, iterations=1)
    print_series(
        f"Vector emulator, {ROWS}x{COLS} "
        f"({result['config']['chiplets']} chiplets)",
        _rows(result),
    )
    benchmark.extra_info["measured"] = {
        p["label"]: p.get("speedup_vs_reference", p.get("speedup"))
        for p in result["points"]
    }
    assert result["stats_identical"]
    assert result["ok"], (
        f"speedups below floors {result['thresholds']}: {result['points']}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_emulator.json", help="result file path"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="scale wave width and BFS graph size (CI uses < 1 for speed)",
    )
    args = parser.parse_args()
    result = measure(args.scale)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(
        f"Vector emulator, {ROWS}x{COLS} "
        f"({result['config']['chiplets']} chiplets) -> {args.out}"
    )
    for row in _rows(result):
        print("   ", *row)
    print(
        f"  floors: {MIN_WORKLOAD_SPEEDUP}x workloads vs reference -> "
        f"{'OK' if result['ok'] else 'REGRESSED'}"
    )
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
