"""NoC simulator benchmark: the vector engine against the reference oracle.

The 32x32 tile array IS the paper's full machine — 1024 compute + 1024
memory chiplets (2048 total), 14336 cores.  This bench drives the
object-model ``engine="reference"`` and the batched-numpy
``engine="vector"`` over identical full-wafer traffic at three injection
rates (low load, mid load, saturation), one run each, and asserts the
reports are field-for-field identical.  The vector engine must run
>=25x faster than the reference at 1% injection and >=3x at
saturation; the simulated cycles and delivered packets are compared
exactly with ``BENCH_noc.json``.

One beyond-paper point rides along: a 128x128 (16384-tile) run that
exercises the no-LUT arithmetic routing kernel.

    python benchmarks/bench_noc_sim.py [--out PATH]    # see repro.obs.bench
"""

import time
from pathlib import Path

from repro.config import SystemConfig
from repro.noc.dualnetwork import NetworkId
from repro.noc.routing import RoutingPolicy, build_port_lut
from repro.noc.simulator import NocSimulator
from repro.obs import bench
from repro.workloads.traffic import TrafficPattern, generate_traffic

ROWS = COLS = 32                # the paper's full 2048-chiplet array
SEED = 1
#: (label, injection rate, offered cycles, vector-over-reference floor) —
#: cycle counts sized so the reference engine finishes each point in a
#: few seconds.
POINTS = (
    ("low (1%)", 0.01, 300, 25.0),
    ("mid (10%)", 0.10, 200, None),
    ("saturation (30%)", 0.30, 100, 3.0),
)

BEYOND_ROWS = BEYOND_COLS = 128     # beyond-paper scale-out point
BEYOND_RATE = 0.002
BEYOND_CYCLES = 100

CONFIG = {"rows": ROWS, "cols": COLS, "chiplets": 2 * ROWS * COLS,
          "fifo_depth": 4, "seed": SEED}


def _side(engine: str, cfg: SystemConfig, rate: float, cycles: int, phases: dict):
    """A :func:`repro.obs.bench.paired` side: one full run to its report.

    The timed window covers inject+run+drain — the steady-state cost a
    long experiment pays per cycle.  Construction is a phase of its own,
    ``phases[f"{engine}_construct_s"]`` (a fixed cost, amortized over
    arbitrarily many cycles; the routing LUTs are memoized process-wide
    anyway).
    """
    def prepare():
        traffic = generate_traffic(cfg, TrafficPattern.UNIFORM, rate, cycles, seed=SEED)
        start = time.perf_counter()
        sim = NocSimulator(cfg, engine=engine)
        phases[f"{engine}_construct_s"] = time.perf_counter() - start

        def run():
            for cycle, packet in traffic:
                while sim.cycle < cycle:
                    sim.step()
                sim.inject(packet, network=NetworkId.XY)
            sim.run(max(0, cycles - sim.cycle))
            sim.drain(max_cycles=500_000)
            return sim.report()

        return run

    return prepare


def _warm() -> None:
    """Absorb one-time costs before any timed run.

    A short vector run pays numpy's first-call dispatch overhead; the
    LUT builds populate the process-wide routing cache for the paper
    array so every vector run constructs from the same warm state.
    """
    _side("vector", SystemConfig(rows=8, cols=8), 0.05, 30, {})()()
    for policy in (RoutingPolicy.XY, RoutingPolicy.YX):
        build_port_lut(ROWS, COLS, policy)


def _exact(rate: float, cycles: int, report) -> dict:
    return {"injection_rate": rate, "offered_cycles": cycles,
            "simulated_cycles": report.cycles, "delivered": report.delivered}


def measure() -> dict:
    """Both engines at every load point; their reports must be identical."""
    _warm()
    cfg = SystemConfig(rows=ROWS, cols=COLS)
    cases = {}
    for label, rate, cycles, floor in POINTS:
        phases: dict = {}
        result = bench.paired(
            {engine: _side(engine, cfg, rate, cycles, phases)
             for engine in ("reference", "vector")},
            pairs=1,
        )
        reports = result.results
        if reports["reference"] != reports["vector"]:
            raise AssertionError(
                f"engines diverged at rate {rate}: "
                f"{reports['reference']} != {reports['vector']}"
            )
        gates = [] if floor is None else [bench.at_least("speedup", 1 / result.ratio, floor)]
        cases[label] = bench.case(
            exact=_exact(rate, cycles, reports["vector"]),
            samples=result.samples,
            phases=phases,
            gates=gates,
        )

    # Beyond-paper scale-out: 16384 tiles, past the LUT ceiling, so the
    # vector engine routes with the arithmetic DoR kernel.
    beyond_cfg = SystemConfig(rows=BEYOND_ROWS, cols=BEYOND_COLS)
    phases = {}
    result = bench.paired(
        {"vector": _side("vector", beyond_cfg, BEYOND_RATE, BEYOND_CYCLES, phases)}, pairs=1
    )
    cases[f"beyond {BEYOND_ROWS}x{BEYOND_COLS}"] = bench.case(
        exact={"rows": BEYOND_ROWS, "cols": BEYOND_COLS,
               **_exact(BEYOND_RATE, BEYOND_CYCLES, result.results["vector"])},
        samples=result.samples,
        phases=phases,
    )
    return cases


if __name__ == "__main__":
    raise SystemExit(bench.main(Path(__file__).with_name("BENCH_noc.json"), measure, CONFIG))
