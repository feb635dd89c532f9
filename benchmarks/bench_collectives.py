"""Collective-workload benchmark: engine throughput + detour compile.

Compiles ring all-reduce and all-to-all schedules on the full 32x32
wafer with a faulted map and drives them through the reference and
vector NoC engines, verifying bit-identical reports and a passing
delivery oracle on every run; every oracle must pass.  A last timed
point compiles the all-to-all on a map whose one fault sits in row 0,
so hundreds of transfers detour; that compile must finish under
DETOUR_COMPILE_CEILING_S.

Runnable two ways::

    python benchmarks/bench_collectives.py             # writes BENCH_collectives.json
    python benchmarks/bench_collectives.py --out path.json
    pytest benchmarks/bench_collectives.py -s          # under the bench harness
"""

import argparse
import json
import time

from repro.config import SystemConfig
from repro.noc.faults import FaultMap, random_fault_map
from repro.workloads.collectives import (
    CollectiveSpec,
    achieved_bandwidth,
    compile_noc,
    run_noc_collective,
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
#: One row-0 fault: 336 of the all-to-all's transfers lose both DoR
#: paths and detour.  A per-tile scalar detour search compiled this in
#: ~40 s on a 2-vCPU host; the shared route table takes ~0.1 s.
DETOUR_FAULT = (0, 7)
DETOUR_COMPILE_CEILING_S = 5.0


def _solo(coll, engine):
    start = time.perf_counter()
    report, checks = run_noc_collective(coll, engine=engine)
    return time.perf_counter() - start, report, checks


def measure() -> dict:
    """Benchmark each workload on both engines, then the detour compile."""
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

    spec = WORKLOADS[1][1]
    start = time.perf_counter()
    coll = compile_noc(cfg, FaultMap(cfg, frozenset({DETOUR_FAULT})), spec)
    detour = {
        "fault": list(DETOUR_FAULT),
        "ranks": spec.ranks,
        "detoured_transfers": coll.detoured_transfers,
        "compile_s": time.perf_counter() - start,
    }
    ok = (
        detour["compile_s"] <= DETOUR_COMPILE_CEILING_S
        and all(p["oracle_checks"] > 0 for p in points)
    )
    return {
        "bench": "collectives",
        "config": {"rows": ROWS, "cols": COLS, "faults": FAULTS, "seed": SEED},
        "thresholds": {
            "detour_compile_s": DETOUR_COMPILE_CEILING_S,
        },
        "reports_identical": True,
        "points": points,
        "detour_compile": detour,
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
    detour = result["detour_compile"]
    rows.append(
        (
            f"{'row-0 detours':<16}",
            f"fault {tuple(detour['fault'])}",
            f"{detour['detoured_transfers']} detoured",
            f"compile {detour['compile_s']:.3f}s",
        )
    )
    return rows


def test_collective_engines_and_detour_compile(benchmark):
    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_series(f"Collectives, {ROWS}x{COLS} faulted wafer", _rows(result))
    benchmark.extra_info["measured"] = {
        "detour_compile_s": result["detour_compile"]["compile_s"],
    }
    assert result["reports_identical"]
    assert result["ok"], (
        f"an oracle ran no checks or the row-0 detour compile took "
        f"{result['detour_compile']['compile_s']:.2f}s "
        f"(ceiling {DETOUR_COMPILE_CEILING_S}s)"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_collectives.json", help="result file path"
    )
    args = parser.parse_args()
    result = measure()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(f"Collectives, {ROWS}x{COLS} faulted wafer -> {args.out}")
    for row in _rows(result):
        print("   ", *row)
    print(
        f"  ceiling: {DETOUR_COMPILE_CEILING_S}s row-0 detour compile -> "
        f"{'OK' if result['ok'] else 'REGRESSED'}"
    )
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
