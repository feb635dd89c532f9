"""Vector emulator engine: full-wafer workloads.

Two gated points, both at the paper's 32x32 (2048-chiplet) array:

* ``wave`` — a :class:`~repro.workloads.waves.FrontierWave` (BFS-shaped
  geometric message wave) on a faulty wafer, ``engine="reference"`` vs
  ``engine="vector"``; stats must be field-for-field identical and the
  vector engine's delivery barriers must be >= ``MIN_BARRIER_SPEEDUP``
  faster than the reference engine's.
* ``bfs`` — distributed BFS over a random graph, same comparison and
  floor.

What is gated.  The two engines share everything but the delivery
barrier (``Emulator._deliver``: route every flow, account its cycles,
fill the inboxes): the same superstep loop calls the same workload
``compute`` on the same tiles (both workloads are mail-driven, so only
the tiles with mail), and both read the fault map's one shared route
table (:func:`repro.noc.connectivity._shared_table`) for
detours.  So the floor compares the time spent inside delivery
barriers — per-flow ``reference_route`` path walks against one
``_flow_kernel`` call per superstep.  The table is built once per map,
untimed, before either engine runs (its cost is reported as
``table_build_s``), and each engine's time is the best of ``REPEATS``
interleaved runs on a fresh system.  Whole-run times and their ratio
are recorded alongside, not gated: at this message count the shared
``compute`` calls and superstep bookkeeping are about half of a vector
run.

Runnable two ways::

    python benchmarks/bench_emulator.py             # writes BENCH_emulator.json
    python benchmarks/bench_emulator.py --out path.json --scale 0.5
    pytest benchmarks/bench_emulator.py -s          # under the bench harness
"""

import argparse
import gc
import json
import time
from contextlib import contextmanager

import numpy as np

from repro.arch.emulator import Emulator, clear_route_cache
from repro.arch.system import WaferscaleSystem
from repro.arch.vectoremu import VectorEmulator
from repro.config import SystemConfig
from repro.noc.connectivity import _shared_table
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

ENGINE_CLASS = {"reference": Emulator, "vector": VectorEmulator}
REPEATS = 3                     # interleaved runs per engine; the best counts
MIN_BARRIER_SPEEDUP = 8.0       # vector over reference barriers, wave and bfs

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


@contextmanager
def _barrier_clock(cls):
    """Accumulate the wall time spent in ``cls._deliver`` while active."""
    deliver = cls._deliver
    spent = [0.0]

    def timed(self):
        start = time.perf_counter()
        try:
            return deliver(self)
        finally:
            spent[0] += time.perf_counter() - start

    cls._deliver = timed
    try:
        yield spent
    finally:
        cls._deliver = deliver


def _build_table(fmap) -> float:
    """Build ``fmap``'s shared route table from scratch; its seconds."""
    clear_route_cache()
    gc.collect()
    start = time.perf_counter()
    _shared_table(fmap)
    return time.perf_counter() - start


def _best_of(make_run) -> tuple[dict, dict, dict]:
    """Best whole-run and barrier seconds per engine, plus its result.

    ``make_run()`` builds a fresh system (untimed) and returns a
    callable running the workload on the engine it is given.
    """
    total = {engine: float("inf") for engine in ENGINE_CLASS}
    barrier = dict(total)
    results = {}
    for _ in range(REPEATS):
        for engine, cls in ENGINE_CLASS.items():
            run = make_run()
            gc.collect()
            with _barrier_clock(cls) as spent:
                start = time.perf_counter()
                results[engine] = run(engine)
                elapsed = time.perf_counter() - start
            total[engine] = min(total[engine], elapsed)
            barrier[engine] = min(barrier[engine], spent[0])
    return total, barrier, results


def _timing_fields(total: dict, barrier: dict, table_s: float) -> dict:
    return {
        "table_build_s": table_s,
        "reference_s": total["reference"],
        "vector_s": total["vector"],
        "speedup_vs_reference": total["reference"] / total["vector"],
        "reference_barrier_s": barrier["reference"],
        "vector_barrier_s": barrier["vector"],
        "barrier_speedup_vs_reference": (
            barrier["reference"] / barrier["vector"]
        ),
    }


def _wave_runner(cfg, fmap, width):
    wave = FrontierWave(
        WaferscaleSystem(cfg, fmap),
        width=width, fanout=WAVE_FANOUT, ttl=WAVE_TTL, seed=SEED,
    )
    return lambda engine: wave.run(engine=engine)


def _bfs_runner(cfg, fmap, graph):
    bfs = DistributedBfs(WaferscaleSystem(cfg, fmap), graph)
    return lambda engine: bfs.run(0, engine=engine)


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
    table_s = _build_table(wave_fmap)
    total, barrier, wave_stats = _best_of(
        lambda: _wave_runner(cfg, wave_fmap, width)
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
        **_timing_fields(total, barrier, table_s),
    }

    # Point 2: distributed BFS, reference vs vector.
    bfs_fmap = random_fault_map(cfg, BFS_FAULTS, rng=rng)
    graph = random_graph(nodes=max(32, int(BFS_NODES * scale)), seed=SEED)
    table_s = _build_table(bfs_fmap)
    total, barrier, bfs_results = _best_of(
        lambda: _bfs_runner(cfg, bfs_fmap, graph)
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
        "detoured": bfs_results["vector"].stats.detoured_messages,
        **_timing_fields(total, barrier, table_s),
    }

    ok = (
        wave_point["barrier_speedup_vs_reference"] >= MIN_BARRIER_SPEEDUP
        and bfs_point["barrier_speedup_vs_reference"] >= MIN_BARRIER_SPEEDUP
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
            "barrier_speedup_vs_reference": MIN_BARRIER_SPEEDUP,
        },
        "stats_identical": True,
        "points": [wave_point, bfs_point],
        "ok": ok,
    }


def _rows(result: dict) -> list[tuple]:
    rows = []
    for point in result["points"]:
        rows += [
            (
                f"{point['label']:<5} barriers    ",
                f"ref {point['reference_barrier_s']:7.3f}s",
                f"vector {point['vector_barrier_s']:7.3f}s",
                f"{point['barrier_speedup_vs_reference']:6.1f}x",
            ),
            (
                f"{point['label']:<5} whole run   ",
                f"ref {point['reference_s']:7.3f}s",
                f"vector {point['vector_s']:7.3f}s",
                f"{point['speedup_vs_reference']:6.1f}x",
            ),
        ]
    return rows


def test_emulator_vector_speedup(benchmark):
    result = benchmark.pedantic(measure, args=(1.0,), rounds=1, iterations=1)
    print_series(
        f"Vector emulator, {ROWS}x{COLS} "
        f"({result['config']['chiplets']} chiplets)",
        _rows(result),
    )
    benchmark.extra_info["measured"] = {
        p["label"]: p["barrier_speedup_vs_reference"]
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
        f"  floors: {MIN_BARRIER_SPEEDUP}x delivery barriers vs reference -> "
        f"{'OK' if result['ok'] else 'REGRESSED'}"
    )
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
