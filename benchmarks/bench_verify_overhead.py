"""Invariant-checker overhead benchmark: checking must stay affordable.

The verification layer's contract mirrors the telemetry layer's: a
simulator constructed without checkers pays a single ``is None`` test
per event site, and the *default* always-on set (flit conservation +
delivery, both O(1) per event) stays within 10% of the unchecked run
(plus a 10 ms absolute floor for sub-millisecond jitter) so it can be
left enabled in long experiments.  The full set — per-grant
DoR/round-robin checks plus a per-cycle FIFO scan — is a campaign tool
and is reported for information only.

This bench drives the vector NoC engine three ways over identical
traffic (none / default / full checkers), ``PAIRS`` interleaved
unchecked/default pairs with the full set after each, and gates the
median per-pair default/unchecked ratio.  On a small host that ratio
reads well above 1.10 and the gate holds only through the floor; the
record says so (``within_budget_without_floor``).

    python benchmarks/bench_verify_overhead.py [--out PATH]    # see repro.obs.bench
"""

from pathlib import Path

from repro.config import SystemConfig
from repro.noc.dualnetwork import NetworkId
from repro.noc.simulator import NocSimulator
from repro.obs import bench
from repro.verify import default_noc_checkers, full_noc_checkers
from repro.workloads.traffic import TrafficPattern, generate_traffic

ROWS = COLS = 8
CYCLES = 150
RATE = 0.08
SEED = 2
ENGINE = "vector"
PAIRS = 5                       # interleaved unchecked/default pairs
MAX_OVERHEAD = 0.10             # default checker set within 10% of unchecked
JITTER_FLOOR_S = 0.010          # absolute slack for sub-ms timing noise

CONFIG = {"rows": ROWS, "cols": COLS, "cycles": CYCLES, "injection_rate": RATE,
          "seed": SEED, "engine": ENGINE, "pairs": PAIRS}


def _side(checker_factory):
    """A paired side: one full simulation (inject, run, drain, report)."""
    def prepare():
        cfg = SystemConfig(rows=ROWS, cols=COLS)
        traffic = generate_traffic(cfg, TrafficPattern.UNIFORM, RATE, CYCLES, seed=SEED)

        def run():
            sim = NocSimulator(cfg, engine=ENGINE, checkers=checker_factory())
            for cycle, packet in traffic:
                while sim.cycle < cycle:
                    sim.step()
                sim.inject(packet, network=NetworkId.XY)
            sim.run(max(0, CYCLES - sim.cycle))
            sim.drain()
            return sim.report().delivered

        return run

    return prepare


def measure() -> dict:
    """Paired unchecked/default timings, the full set for information."""
    result = bench.paired(
        {"unchecked": _side(lambda: None),
         "default": _side(default_noc_checkers),
         "full": _side(full_noc_checkers)},
        PAIRS,
    )
    if len(set(result.results.values())) != 1:
        raise AssertionError(f"checkers changed the delivered count: {result.results}")
    return {
        "checkers": bench.case(
            exact={"delivered": result.results["unchecked"]},
            samples=result.samples,
            gates=[bench.overhead("default_ratio", result, MAX_OVERHEAD, JITTER_FLOOR_S)],
        ),
    }


if __name__ == "__main__":
    raise SystemExit(
        bench.main(Path(__file__).with_name("BENCH_verify.json"), measure, CONFIG)
    )
