"""Invariant-checker overhead benchmark: checking must stay affordable.

The verification layer's contract mirrors the telemetry layer's: a
simulator constructed without checkers pays a single ``is None`` test
per event site, and the *default* always-on set (flit conservation +
delivery, both O(1) per event) stays within 10% of the unchecked run so
it can be left enabled in long experiments.  The full set — per-grant
DoR/round-robin checks plus a per-cycle FIFO scan — is a campaign tool
and is reported for information only.

This bench drives the vector NoC engine three ways over identical traffic
(none / default / full checkers) and asserts the default-set budget.
The measured numbers are committed to ``BENCH_verify.json``.

Runnable three ways::

    python benchmarks/bench_verify_overhead.py                 # summary
    python benchmarks/bench_verify_overhead.py --out B.json    # + document
    pytest benchmarks/bench_verify_overhead.py -s

To refresh the committed numbers, pass ``--out benchmarks/BENCH_verify.json``.
"""

import argparse
import json
import time

from repro.config import SystemConfig
from repro.noc.dualnetwork import NetworkId
from repro.noc.simulator import NocSimulator
from repro.verify import default_noc_checkers, full_noc_checkers
from repro.workloads.traffic import TrafficPattern, generate_traffic

from conftest import print_series

ROWS = COLS = 8
CYCLES = 150
RATE = 0.08
SEED = 2
ENGINE = "vector"
REPEATS = 5                     # best-of-N to shed scheduler noise
MAX_OVERHEAD = 0.10             # default checker set within 10% of unchecked
JITTER_FLOOR_S = 0.010          # absolute slack for sub-ms timing noise


def _drive(checker_factory) -> float:
    """One full simulation (inject, run, drain, report); returns seconds."""
    cfg = SystemConfig(rows=ROWS, cols=COLS)
    traffic = generate_traffic(cfg, TrafficPattern.UNIFORM, RATE, CYCLES, seed=SEED)
    start = time.perf_counter()
    sim = NocSimulator(cfg, engine=ENGINE, checkers=checker_factory())
    for cycle, packet in traffic:
        while sim.cycle < cycle:
            sim.step()
        sim.inject(packet, network=NetworkId.XY)
    sim.run(max(0, CYCLES - sim.cycle))
    sim.drain()
    sim.report()
    return time.perf_counter() - start


def _best(*checker_factories) -> list[float]:
    """Best-of-N seconds per checker set, the sets run interleaved so a
    slow stretch of the host hits every set alike."""
    times = [
        [_drive(factory) for factory in checker_factories]
        for _ in range(REPEATS)
    ]
    return [min(column) for column in zip(*times)]


def measure() -> dict:
    """Best-of-N wall time for unchecked/default/full checker sets."""
    baseline_s, default_s, full_s = _best(
        lambda: None, default_noc_checkers, full_noc_checkers
    )
    overhead = (default_s - baseline_s) / baseline_s if baseline_s > 0 else 0.0
    full_overhead = (full_s - baseline_s) / baseline_s if baseline_s > 0 else 0.0
    return {
        "baseline_s": baseline_s,
        "default_checkers_s": default_s,
        "full_checkers_s": full_s,
        "default_overhead": overhead,
        "full_overhead": full_overhead,
        "within_budget": (
            default_s <= baseline_s * (1 + MAX_OVERHEAD) + JITTER_FLOOR_S
        ),
    }


def write_bench_json(result: dict, path: str) -> None:
    """Write the measured overheads as a ``BENCH_verify.json`` document."""
    document = {
        "bench": "verify_overhead",
        "config": {
            "rows": ROWS,
            "cols": COLS,
            "cycles": CYCLES,
            "injection_rate": RATE,
            "seed": SEED,
            "engine": ENGINE,
            "repeats": REPEATS,
        },
        "thresholds": {"default_set_max_overhead": MAX_OVERHEAD},
        "measured": result,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")


def test_default_checker_overhead(benchmark):
    result = benchmark.pedantic(measure, rounds=1, iterations=1)

    print_series(
        f"NoC sim {ROWS}x{COLS}, {CYCLES} cycles: checker overhead",
        [
            ("unchecked", f"{result['baseline_s'] * 1e3:.1f}ms"),
            (
                "default set (conservation+delivery)",
                f"{result['default_checkers_s'] * 1e3:.1f}ms "
                f"({result['default_overhead']:+.1%})",
            ),
            (
                "full set (+DoR, round-robin, FIFO)",
                f"{result['full_checkers_s'] * 1e3:.1f}ms "
                f"({result['full_overhead']:+.1%})",
            ),
        ],
    )
    benchmark.extra_info["measured"] = {
        k: result[k]
        for k in ("baseline_s", "default_checkers_s", "full_checkers_s")
    }

    assert result["within_budget"], (
        f"default checker set cost {result['default_overhead']:+.1%} "
        f"(budget {MAX_OVERHEAD:.0%})"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="also write the results as a BENCH_verify.json document",
    )
    args = parser.parse_args(argv)

    result = measure()
    print(f"NoC sim {ROWS}x{COLS}, {CYCLES} cycles + drain, best of {REPEATS}")
    print(f"  unchecked:                 {result['baseline_s'] * 1e3:.1f}ms")
    print(f"  default checker set:       {result['default_checkers_s'] * 1e3:.1f}ms "
          f"({result['default_overhead']:+.1%})")
    print(f"  full checker set:          {result['full_checkers_s'] * 1e3:.1f}ms "
          f"({result['full_overhead']:+.1%})")
    print(f"  default-set budget:        {MAX_OVERHEAD:.0%} -> "
          f"{'OK' if result['within_budget'] else 'EXCEEDED'}")
    if args.out:
        write_bench_json(result, args.out)
        print(f"  wrote {args.out}")
    return 0 if result["within_budget"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
