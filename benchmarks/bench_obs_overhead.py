"""Telemetry overhead benchmark: the disabled path must stay ~free.

The observability layer's core promise is that instrumented code with
*no* telemetry attached costs nothing measurable: subsystems keep a
single ``is None`` handle check in their hot loops.  The ``disabled
path`` case drives the cycle-level NoC simulator three ways over
identical traffic —

* **baseline** — no telemetry argument, NULL ambient (the default every
  library user gets);
* **disabled** — an explicit ``Telemetry.disabled()`` attached (the
  instrumented-but-off path);
* **enabled** — a live ``Telemetry`` recording metrics and trace spans —

and gates the disabled path within 5% of baseline (with a 10 ms
absolute floor so sub-millisecond jitter on tiny runs cannot flake the
build), judged on the median ratio of ``PAIRS`` back-to-back
baseline/disabled pairs.  The enabled path is reported for
information; it pays for real recording and has no cap.  All three
must deliver the same packets.

The ``worker merge`` case prices the capture/merge path: the experiment
engine runs a pure-compute trial function across a process pool twice —
telemetry disabled, then enabled (each worker captures a fresh
:class:`~repro.obs.snapshot.TelemetrySnapshot`, the parent merges) —
and gates the merged run within 10% of the disabled run, paired the
same way.  Every median time must also stay within ``MAX_SLOWDOWN``
times the committed ``BENCH_obs.json`` one.

    python benchmarks/bench_obs_overhead.py [--out PATH]    # see repro.obs.bench
"""

import time
from pathlib import Path

import numpy as np

from repro.config import SystemConfig
from repro.engine import ExperimentEngine
from repro.noc.dualnetwork import NetworkId
from repro.noc.simulator import NocSimulator
from repro.obs import Telemetry, bench, resolve_telemetry
from repro.workloads.traffic import TrafficPattern, generate_traffic

ROWS = COLS = 8
CYCLES = 150
RATE = 0.08
SEED = 2
PAIRS = 9                       # interleaved pairs per case; the median ratio counts
MAX_OVERHEAD = 0.05             # disabled path within 5% of baseline
JITTER_FLOOR_S = 0.010          # absolute slack for sub-ms timing noise
MAX_SLOWDOWN = 6.0              # median seconds over the committed ones

MERGE_TRIALS = 64               # engine trials per capture/merge run
MERGE_WORKERS = 2               # pool size (modest: CI runners are small)
MERGE_MAX_OVERHEAD = 0.10       # merged run within 10% of disabled run

CONFIG = {"noc_rows": ROWS, "noc_cols": COLS, "noc_cycles": CYCLES,
          "noc_rate": RATE, "seed": SEED, "pairs": PAIRS,
          "merge_trials": MERGE_TRIALS, "merge_workers": MERGE_WORKERS}


def _noc_side(make_telemetry):
    """A paired side: one full simulation (inject, run, drain, report)."""
    def prepare():
        cfg = SystemConfig(rows=ROWS, cols=COLS)
        traffic = generate_traffic(cfg, TrafficPattern.UNIFORM, RATE, CYCLES, seed=SEED)
        telemetry = make_telemetry()

        def run():
            sim = NocSimulator(cfg, telemetry=telemetry)
            for cycle, packet in traffic:
                while sim.cycle < cycle:
                    sim.step()
                sim.inject(packet, network=NetworkId.XY)
            sim.run(max(0, CYCLES - sim.cycle))
            sim.drain()
            return sim.report().delivered

        return run

    return prepare


def _merge_trial(ctx) -> float:
    """Pure-compute trial that records a little telemetry when enabled.

    The work is deliberately *not* a NoC simulation: the point is to
    price the capture/merge plumbing itself (fresh per-worker telemetry,
    snapshot pickling, parent-side merge), so the trial body must be
    cheap-but-real compute with only a few recording calls riding on it.
    """
    data = ctx.rng.random(16384)
    acc = 0.0
    for _ in range(24):
        acc += float(np.sqrt(data * data + 1.0).sum())
    telemetry = resolve_telemetry()
    telemetry.metrics.counter("bench.merge_trials").inc()
    telemetry.metrics.histogram("bench.merge_value").observe(acc)
    return acc


def _merge_side(make_telemetry):
    """A paired side: one pooled engine run; the merged trial count."""
    def prepare():
        telemetry = make_telemetry()
        engine = ExperimentEngine(workers=MERGE_WORKERS, cache=None, telemetry=telemetry)

        def run():
            engine.run(_merge_trial, experiment="bench.obs_merge",
                       trials=MERGE_TRIALS, seed=7)
            return telemetry.metrics.counter("bench.merge_trials").value

        return run

    return prepare


def _slowdown_gates(result: bench.Paired) -> list[dict]:
    return [
        bench.within(f"{side}_s", bench.timing(seconds)["median"], MAX_SLOWDOWN)
        for side, seconds in result.samples.items()
    ]


def measure() -> dict:
    """Paired disabled-path and worker-merge timings."""
    noc = bench.paired(
        {"baseline": _noc_side(lambda: None),
         "disabled": _noc_side(Telemetry.disabled),
         "enabled": _noc_side(Telemetry)},
        PAIRS,
    )
    if len(set(noc.results.values())) != 1:
        raise AssertionError(f"telemetry changed the delivered count: {noc.results}")
    merge = bench.paired(
        {"disabled": _merge_side(Telemetry.disabled), "merged": _merge_side(Telemetry)},
        PAIRS,
    )
    return {
        "disabled path": bench.case(
            exact={"delivered": noc.results["baseline"]},
            samples=noc.samples,
            gates=[bench.overhead("disabled_ratio", noc, MAX_OVERHEAD, JITTER_FLOOR_S),
                   *_slowdown_gates(noc)],
        ),
        "worker merge": bench.case(
            exact={"merged_trials": merge.results["merged"]},
            samples=merge.samples,
            gates=[bench.overhead("merged_ratio", merge, MERGE_MAX_OVERHEAD, JITTER_FLOOR_S),
                   *_slowdown_gates(merge)],
        ),
    }


if __name__ == "__main__":
    raise SystemExit(bench.main(Path(__file__).with_name("BENCH_obs.json"), measure, CONFIG))
