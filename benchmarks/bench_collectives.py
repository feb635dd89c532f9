"""Collective-workload benchmark: engine throughput + detour compile.

Compiles ring all-reduce and all-to-all schedules on the full 32x32
wafer with a faulted map and drives them through the reference and
vector NoC engines, one run each, verifying bit-identical reports and a
delivery oracle that ran checks on every run.  A last timed case
compiles the all-to-all on a map whose one fault sits in row 0, so
hundreds of transfers detour; that compile must finish under
DETOUR_COMPILE_CEILING_S.

    python benchmarks/bench_collectives.py [--out PATH]    # see repro.obs.bench
"""

import time
from pathlib import Path

from repro.config import SystemConfig
from repro.noc.faults import FaultMap, random_fault_map
from repro.obs import bench
from repro.workloads.collectives import (
    CollectiveSpec,
    achieved_bandwidth,
    compile_noc,
    run_noc_collective,
)

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

CONFIG = {"rows": ROWS, "cols": COLS, "faults": FAULTS, "seed": SEED,
          "detour_fault": list(DETOUR_FAULT)}


def _side(coll, engine: str):
    """A :func:`repro.obs.bench.paired` side: one run and its oracle."""
    return lambda: lambda: run_noc_collective(coll, engine=engine)


def measure() -> dict:
    """Each workload on both engines, then the detour compile."""
    cfg = SystemConfig(rows=ROWS, cols=COLS)
    fmap = random_fault_map(cfg, FAULTS, rng=SEED)
    cases = {}
    for label, spec in WORKLOADS:
        coll = compile_noc(cfg, fmap, spec)
        result = bench.paired(
            {engine: _side(coll, engine) for engine in ("reference", "vector")},
            pairs=1,
        )
        report, checks = result.results["reference"]
        vector_report, vector_checks = result.results["vector"]
        if report != vector_report:
            raise AssertionError(
                f"engines diverged on {label}: {report} != {vector_report}"
            )
        cases[label] = bench.case(
            exact={
                "ranks": spec.ranks,
                "packets": coll.packets,
                "detoured_transfers": coll.detoured_transfers,
                "cycles": report.cycles,
                "bandwidth_words_per_cycle": achieved_bandwidth(coll, report),
                "oracle_checks": checks,
            },
            samples=result.samples,
            gates=[bench.at_least("oracle_checks", min(checks, vector_checks), 1)],
        )

    spec = WORKLOADS[1][1]
    start = time.perf_counter()
    coll = compile_noc(cfg, FaultMap(cfg, frozenset({DETOUR_FAULT})), spec)
    compile_s = time.perf_counter() - start
    cases["row-0 detours"] = bench.case(
        exact={"ranks": spec.ranks, "detoured_transfers": coll.detoured_transfers},
        phases={"compile_s": compile_s},
        gates=[bench.at_most("compile_s", compile_s, DETOUR_COMPILE_CEILING_S)],
    )
    return cases


if __name__ == "__main__":
    raise SystemExit(
        bench.main(Path(__file__).with_name("BENCH_collectives.json"), measure, CONFIG)
    )
