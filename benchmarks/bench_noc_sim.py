"""NoC simulator benchmark: the vector engine against the reference oracle.

The 32x32 tile array IS the paper's full machine — 1024 compute + 1024
memory chiplets (2048 total), 14336 cores.  This bench drives the
object-model ``engine="reference"`` and the batched-numpy
``engine="vector"`` over identical full-wafer traffic at three injection
rates (low load, mid load, saturation), asserts the reports are
field-for-field identical, and records wall-clock cycles/sec in
``BENCH_noc.json``.  The acceptance floors for the vector engine are
>=25x over the reference at 1% injection and >=3x at saturation; the
run fails if either regresses.

One beyond-paper point rides along: a 128x128 (16384-tile) run that
exercises the no-LUT arithmetic routing kernel.

Runnable two ways::

    python benchmarks/bench_noc_sim.py                 # writes BENCH_noc.json
    python benchmarks/bench_noc_sim.py --out path.json --cycles-scale 0.5
    pytest benchmarks/bench_noc_sim.py -s              # under the bench harness
"""

import argparse
import json
import time

from repro.config import SystemConfig
from repro.noc.dualnetwork import NetworkId
from repro.noc.routing import RoutingPolicy, build_port_lut
from repro.noc.simulator import NocSimulator
from repro.workloads.traffic import TrafficPattern, generate_traffic

from conftest import print_series

ROWS = COLS = 32                # the paper's full 2048-chiplet array
SEED = 1
#: (label, injection rate, offered cycles) — cycle counts sized so the
#: reference engine finishes each point in a few seconds.
POINTS = (
    ("low (1%)", 0.01, 300),
    ("mid (10%)", 0.10, 200),
    ("saturation (30%)", 0.30, 100),
)
MIN_SPEEDUP_LOW = 25.0          # vector-over-reference floor at 1% injection
MIN_SPEEDUP_SATURATION = 3.0    # vector-over-reference floor at saturation

BEYOND_ROWS = BEYOND_COLS = 128     # beyond-paper scale-out point
BEYOND_RATE = 0.002
BEYOND_CYCLES = 100


def _drive(engine: str, cfg: SystemConfig, rate: float, cycles: int):
    """One full run; returns (seconds, construct seconds, report).

    The timed window covers inject+run+drain — the steady-state cost a
    long experiment pays per cycle.  Construction is measured separately
    (it is a fixed cost, amortized over arbitrarily many cycles, and the
    routing LUTs are memoized process-wide anyway).
    """
    traffic = generate_traffic(cfg, TrafficPattern.UNIFORM, rate, cycles, seed=SEED)
    c_start = time.perf_counter()
    sim = NocSimulator(cfg, engine=engine)
    start = time.perf_counter()
    for cycle, packet in traffic:
        while sim.cycle < cycle:
            sim.step()
        sim.inject(packet, network=NetworkId.XY)
    sim.run(max(0, cycles - sim.cycle))
    sim.drain(max_cycles=500_000)
    elapsed = time.perf_counter() - start
    return elapsed, start - c_start, sim.report()


def _warm() -> None:
    """Absorb one-time costs before any timed run.

    A short vector run pays numpy's first-call dispatch overhead; the
    LUT builds populate the process-wide routing cache for the paper
    array so every vector run constructs from the same warm state.
    """
    cfg = SystemConfig(rows=8, cols=8)
    _drive("vector", cfg, 0.05, 30)
    for policy in (RoutingPolicy.XY, RoutingPolicy.YX):
        build_port_lut(ROWS, COLS, policy)


def measure(cycles_scale: float = 1.0) -> dict:
    """Benchmark both engines at every load point; verify equivalence."""
    _warm()
    cfg = SystemConfig(rows=ROWS, cols=COLS)
    points = []
    for label, rate, cycles in POINTS:
        cycles = max(20, int(cycles * cycles_scale))
        ref_s, ref_c, ref_report = _drive("reference", cfg, rate, cycles)
        vector_s, vector_c, vector_report = _drive("vector", cfg, rate, cycles)
        if ref_report != vector_report:
            raise AssertionError(
                f"engines diverged at rate {rate}: "
                f"{ref_report} != {vector_report}"
            )
        points.append(
            {
                "label": label,
                "injection_rate": rate,
                "offered_cycles": cycles,
                "simulated_cycles": vector_report.cycles,
                "delivered": vector_report.delivered,
                "reference_s": ref_s,
                "vector_s": vector_s,
                "reference_construct_s": ref_c,
                "vector_construct_s": vector_c,
                "reference_cycles_per_s": ref_report.cycles / ref_s,
                "vector_cycles_per_s": vector_report.cycles / vector_s,
                "speedup": ref_s / vector_s,
            }
        )

    # Beyond-paper scale-out: 16384 tiles, past the LUT ceiling, so the
    # vector engine routes with the arithmetic DoR kernel.
    beyond_cfg = SystemConfig(rows=BEYOND_ROWS, cols=BEYOND_COLS)
    beyond_cycles = max(20, int(BEYOND_CYCLES * cycles_scale))
    beyond_s, beyond_c, beyond_report = _drive(
        "vector", beyond_cfg, BEYOND_RATE, beyond_cycles
    )
    beyond = {
        "rows": BEYOND_ROWS,
        "cols": BEYOND_COLS,
        "injection_rate": BEYOND_RATE,
        "offered_cycles": beyond_cycles,
        "simulated_cycles": beyond_report.cycles,
        "delivered": beyond_report.delivered,
        "vector_s": beyond_s,
        "vector_construct_s": beyond_c,
        "vector_cycles_per_s": beyond_report.cycles / beyond_s,
    }

    low, _, sat = points
    ok = (
        low["speedup"] >= MIN_SPEEDUP_LOW
        and sat["speedup"] >= MIN_SPEEDUP_SATURATION
    )
    return {
        "bench": "noc_sim",
        "config": {
            "rows": ROWS,
            "cols": COLS,
            "chiplets": 2 * ROWS * COLS,
            "fifo_depth": 4,
            "seed": SEED,
        },
        "thresholds": {
            "low_rate_speedup": MIN_SPEEDUP_LOW,
            "saturation_speedup": MIN_SPEEDUP_SATURATION,
        },
        "reports_identical": True,
        "points": points,
        "beyond_paper": beyond,
        "ok": ok,
    }


def _rows(result: dict) -> list[tuple]:
    rows = [
        (
            f"{p['label']:<18}",
            f"ref {p['reference_cycles_per_s']:8.1f} c/s",
            f"vector {p['vector_cycles_per_s']:9.1f} c/s",
            f"{p['speedup']:6.2f}x",
        )
        for p in result["points"]
    ]
    beyond = result["beyond_paper"]
    rows.append(
        (
            f"{beyond['rows']}x{beyond['cols']} beyond  ",
            f"vector {beyond['vector_cycles_per_s']:8.1f} c/s",
            f"({beyond['delivered']} delivered)",
            "",
        )
    )
    return rows


def _title(result: dict) -> str:
    return (
        f"NoC engines, {ROWS}x{COLS} ({result['config']['chiplets']} "
        "chiplets) uniform traffic"
    )


def test_vector_engine_speedup(benchmark):
    result = benchmark.pedantic(measure, args=(0.5,), rounds=1, iterations=1)
    print_series(_title(result), _rows(result))
    benchmark.extra_info["measured"] = {
        p["label"]: p["speedup"] for p in result["points"]
    }
    assert result["reports_identical"]
    assert result["ok"], (
        f"speedups {[p['speedup'] for p in result['points']]} below floors "
        f"{result['thresholds']}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_noc.json", help="result file path"
    )
    parser.add_argument(
        "--cycles-scale",
        type=float,
        default=1.0,
        help="scale the offered-cycle counts (< 1 for a quicker run)",
    )
    args = parser.parse_args()
    result = measure(args.cycles_scale)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(f"{_title(result)} -> {args.out}")
    for row in _rows(result):
        print("   ", *row)
    print(
        f"  floors: {MIN_SPEEDUP_LOW}x at 1%, "
        f"{MIN_SPEEDUP_SATURATION}x at saturation -> "
        f"{'OK' if result['ok'] else 'REGRESSED'}"
    )
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
