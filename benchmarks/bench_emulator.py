"""Vector emulator engine: full-wafer workloads.

Two gated points, both at the paper's 32x32 (2048-chiplet) array:

* ``wave`` — a :class:`~repro.workloads.waves.FrontierWave` (BFS-shaped
  geometric message wave) on a faulty wafer, ``engine="reference"`` vs
  ``engine="vector"``; stats must be field-for-field identical.
* ``bfs`` — distributed BFS over a random graph, same comparison.

What is timed.  The two engines share everything but the delivery
barrier (``Emulator._deliver``: route every flow, account its cycles,
fill the inboxes): the same superstep loop calls the same workload
``compute`` on the same tiles (both workloads are mail-driven, so only
the tiles with mail), and both read the fault map's one shared route
table (:func:`repro.noc.connectivity._shared_table`) for
detours.  So the bench times what happens inside delivery barriers —
per-flow ``reference_route`` path walks against one ``_flow_kernel``
call per superstep.  The table is built once per map, untimed, before
either engine runs (its cost is reported as ``table_build_s``), and
each engine's time is the best of ``REPEATS`` interleaved runs on a
fresh system.  Whole-run times and both ratios are recorded alongside,
not gated: at this message count the shared ``compute`` calls and
superstep bookkeeping are about half of a vector run.

What is gated.  The vector kernel's own barrier time, against its own
committed baseline.  A fixed host-calibration kernel
(:func:`_calibration_kernel`: numpy flow grouping plus a Python inbox
fill, shaped like one barrier) is timed right before and right after
every run; one vector run's barrier seconds over the faster of its two
calibrations is one calibrated sample, and the point's
``vector_barrier_calibrated_ratio`` is the median of its ``REPEATS``
samples.  Pairing each run with its own calibrations matters: a shared
host can switch speed between runs (by ~1.6x on the 2-vCPU VM the
baseline was taken on), and a best-of-N over unpaired runs can catch
the two sides in different states.  A point fails when its calibrated
ratio exceeds the committed ``BENCH_emulator.json`` one by more than
``MAX_BARRIER_SLOWDOWN``, or when the baseline holds a different
workload (regenerate it by writing the result over the committed file).
A ratio against the reference engine is not the gate: the reference
engine is the oracle, and it got faster on its own, which moved that
ratio with no change to the kernel.

Runnable two ways::

    python benchmarks/bench_emulator.py --out path.json   # gate + record
    python benchmarks/bench_emulator.py --out benchmarks/BENCH_emulator.json
    pytest benchmarks/bench_emulator.py -s                # under the bench harness
"""

import argparse
import gc
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

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
REPEATS = 15                    # interleaved runs per engine; the best counts
MAX_BARRIER_SLOWDOWN = 1.5      # calibrated vector barriers over the baseline's
BASELINE = Path(__file__).with_name("BENCH_emulator.json")

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


def _calibration_kernel() -> None:
    """Fixed host work shaped like one vector delivery barrier.

    Group 600 (src, dst) flows with ``np.unique``, order the messages by
    flow, then fill per-destination inboxes from Python lists: the same
    mix of small numpy calls and interpreter work as ``_deliver``.
    """
    rng = np.random.default_rng(SEED)
    src = rng.integers(0, ROWS * COLS, size=600)
    dst = rng.integers(0, ROWS * COLS, size=600)
    for _ in range(10):
        keys = src * (ROWS * COLS) + dst
        flows, inverse, counts = np.unique(
            keys, return_inverse=True, return_counts=True
        )
        perm = np.argsort(inverse, kind="stable").tolist()
        targets = (flows % (ROWS * COLS)).tolist()
        inboxes: dict[int, list[int]] = {}
        pos = 0
        for j, count in enumerate(counts.tolist()):
            inbox = inboxes.setdefault(targets[j], [])
            for i in perm[pos:pos + count]:
                inbox.append(i)
            pos += count


def _time_calibration() -> float:
    start = time.perf_counter()
    _calibration_kernel()
    return time.perf_counter() - start


def _best_of(make_run) -> tuple[dict, dict, dict, float]:
    """Best whole-run and barrier seconds per engine, plus its result.

    ``make_run()`` builds a fresh system (untimed) and returns a
    callable running the workload on the engine it is given.  The last
    value is the median calibrated vector barrier (module docstring).
    """
    total = {engine: float("inf") for engine in ENGINE_CLASS}
    barrier = dict(total)
    results = {}
    calibrated = []
    for _ in range(REPEATS):
        for engine, cls in ENGINE_CLASS.items():
            run = make_run()
            gc.collect()
            before = _time_calibration()
            with _barrier_clock(cls) as spent:
                start = time.perf_counter()
                results[engine] = run(engine)
                elapsed = time.perf_counter() - start
            host_s = min(before, _time_calibration())
            total[engine] = min(total[engine], elapsed)
            barrier[engine] = min(barrier[engine], spent[0])
            if engine == "vector":
                calibrated.append(spent[0] / host_s)
    return total, barrier, results, statistics.median(calibrated)


def _timing_fields(
    total: dict, barrier: dict, table_s: float, calibrated: float
) -> dict:
    return {
        "table_build_s": table_s,
        "vector_barrier_calibrated_ratio": calibrated,
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


def _gate(points: list[dict], baseline: dict) -> bool:
    """Compare each point's calibrated vector barrier with the baseline's.

    Adds ``barrier_slowdown_ratio`` to every point: infinite when the
    baseline has no point of that label and message count.
    """
    committed = {p["label"]: p for p in baseline["points"]}
    for point in points:
        base = committed.get(point["label"], {})
        if base.get("messages") != point["messages"]:
            point["barrier_slowdown_ratio"] = float("inf")
        else:
            point["barrier_slowdown_ratio"] = (
                point["vector_barrier_calibrated_ratio"]
                / base["vector_barrier_calibrated_ratio"]
            )
    return all(p["barrier_slowdown_ratio"] <= MAX_BARRIER_SLOWDOWN for p in points)


def measure() -> dict:
    """Benchmark the emulator points; verify engine equivalence."""
    _warm()
    cfg = SystemConfig(rows=ROWS, cols=COLS)
    rng = np.random.default_rng(SEED)

    # Point 1: frontier wave, reference vs vector.
    wave_fmap = random_fault_map(cfg, WAVE_FAULTS, rng=rng)
    table_s = _build_table(wave_fmap)
    total, barrier, wave_stats, calibrated = _best_of(
        lambda: _wave_runner(cfg, wave_fmap, WAVE_WIDTH)
    )
    _assert_identical(wave_stats, "wave")
    wave_point = {
        "label": "wave",
        "width": WAVE_WIDTH,
        "fanout": WAVE_FANOUT,
        "ttl": WAVE_TTL,
        "faults": WAVE_FAULTS,
        "messages": wave_stats["vector"].messages_sent,
        "detoured": wave_stats["vector"].detoured_messages,
        **_timing_fields(total, barrier, table_s, calibrated),
    }

    # Point 2: distributed BFS, reference vs vector.
    bfs_fmap = random_fault_map(cfg, BFS_FAULTS, rng=rng)
    graph = random_graph(nodes=BFS_NODES, seed=SEED)
    table_s = _build_table(bfs_fmap)
    total, barrier, bfs_results, calibrated = _best_of(
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
        **_timing_fields(total, barrier, table_s, calibrated),
    }

    points = [wave_point, bfs_point]
    with open(BASELINE, encoding="utf-8") as handle:
        ok = _gate(points, json.load(handle))
    return {
        "bench": "emulator",
        "config": {
            "rows": ROWS,
            "cols": COLS,
            "chiplets": 2 * ROWS * COLS,
            "seed": SEED,
        },
        "thresholds": {
            "max_barrier_slowdown_ratio": MAX_BARRIER_SLOWDOWN,
        },
        "stats_identical": True,
        "points": points,
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
                f"{point['label']:<5} calibrated  ",
                f"vector/host {point['vector_barrier_calibrated_ratio']:6.3f}",
                f"{point['barrier_slowdown_ratio']:6.2f}x baseline",
            ),
            (
                f"{point['label']:<5} whole run   ",
                f"ref {point['reference_s']:7.3f}s",
                f"vector {point['vector_s']:7.3f}s",
                f"{point['speedup_vs_reference']:6.1f}x",
            ),
        ]
    return rows


def test_emulator_vector_barriers(benchmark):
    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_series(
        f"Vector emulator, {ROWS}x{COLS} "
        f"({result['config']['chiplets']} chiplets)",
        _rows(result),
    )
    benchmark.extra_info["measured"] = {
        p["label"]: p["barrier_slowdown_ratio"] for p in result["points"]
    }
    assert result["stats_identical"]
    assert result["ok"], (
        f"vector barriers slower than baseline x {MAX_BARRIER_SLOWDOWN}: "
        f"{result['points']}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_emulator.json", help="result file path"
    )
    args = parser.parse_args()
    result = measure()
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
        f"  gate: calibrated vector barriers <= {MAX_BARRIER_SLOWDOWN}x "
        f"{BASELINE.name} -> {'OK' if result['ok'] else 'REGRESSED'}"
    )
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
