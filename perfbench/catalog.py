"""What the benchmark measures: workloads, metrics and their bounds.

``BENCHMARK.json`` at the repository root is generated from this table
(by ``python3 perfbench/run.py --all``), so the file and the code that
emits the metrics cannot drift apart.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 25

#: name -> why.  One line each; see perfbench/README.md for the long form.
WORKLOADS = {
    "fault-mc": "Fig. 6 + clock-resiliency Monte Carlo at 32x32 on 2 engine "
    "workers with a cold cache: the only load where dispatch, pickling and "
    "cache I/O weigh",
    "noc-dense": "full-wafer vector NoC at 10% then 30% uniform load: nearly "
    "every cycle is busy, so arbitrate/credit/deliver work dominates",
    "sparse-comm": "ring all-reduce, all-to-all and BFS on a faulty full wafer: "
    "sparse NoC cycles plus the vector emulator and collective compiler",
    "design-flow": "repro flow on a 5x5 array: substrate routing and DRC dominate, "
    "with PDN, clock, DfT and an inline Fig. 6 stage",
}

#: Natural unit of ``work_per_s`` per workload: (printed name, unit).
WORK_NAMES = {
    "fault-mc": ("maps_per_s", "maps/s"),
    "noc-dense": ("sim_cycles_per_s", "cycles/s"),
    "sparse-comm": ("sim_cycles_per_s", "cycles/s"),
    "design-flow": ("nets_per_s", "nets/s"),
}

#: Seconds the host-speed kernel (``measure.calibrate``) takes at the
#: reference host speed, about its fastest time on a 2-vCPU Intel Xeon
#: VM.  Every host time below is scaled to that speed, interval by interval.
CAL_REF_S = 0.022

#: (name, unit, better, bound) — measured with tracing off, host times at
#: the reference host speed.  Bounds: steadiness runs in perfbench/README.md.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_s", "s", "lower", 0.25),
    ("op_tail_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("work_per_s", "work/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

#: (name, unit, better) — measured in the traced run; per-op medians unless
#: noted in perfbench/README.md.  Layers a workload does not call read 0.
#: Counts of work done read "higher", costs "lower".
PER_LAYER = [
    ("engine.run_s", "s", "lower"),
    ("engine.trial_s", "s", "lower"),
    ("engine.dispatch_s", "s", "lower"),
    ("engine.trials", "count", "higher"),
    ("engine.cache_get_s", "s", "lower"),
    ("engine.cache_put_s", "s", "lower"),
    ("engine.cache_hits", "count", "higher"),
    ("engine.cache_misses", "count", "lower"),
    ("engine.warm_op_p50_s", "s", "lower"),
    ("connectivity.kernel_s", "s", "lower"),
    ("connectivity.maps", "count", "higher"),
    ("faults.draw_s", "s", "lower"),
    ("clock.coverage_s", "s", "lower"),
    ("traffic.generate_s", "s", "lower"),
    ("noc.construct_s", "s", "lower"),
    ("noc.inject_s", "s", "lower"),
    ("noc.step_s", "s", "lower"),
    ("noc.drain_s", "s", "lower"),
    ("noc.report_s", "s", "lower"),
    ("noc.cycles", "count", "higher"),
    ("noc.busy_cycles", "count", "higher"),
    ("noc.idle_cycles", "count", "higher"),
    ("noc.busy_cycle_ratio", "ratio", "higher"),
    ("noc.step_s_per_idle_cycle", "s/cycle", "lower"),
    ("noc.step_s_per_busy_cycle", "s/cycle", "lower"),
    ("noc.delivered", "count", "higher"),
    ("noc.link_stalls", "count", "lower"),
    ("collectives.compile_s", "s", "lower"),
    ("collectives.oracle_s", "s", "lower"),
    ("collectives.packets", "count", "higher"),
    ("collectives.detoured_transfers", "count", "lower"),
    ("emu.system_s", "s", "lower"),
    ("emu.run_s", "s", "lower"),
    ("emu.supersteps", "count", "higher"),
    ("emu.messages", "count", "higher"),
    ("emu.detoured_messages", "count", "lower"),
    ("substrate.netlist_s", "s", "lower"),
    ("substrate.route_s", "s", "lower"),
    ("substrate.drc_s", "s", "lower"),
    ("substrate.nets", "count", "higher"),
    ("substrate.wires", "count", "higher"),
    ("substrate.unrouted", "count", "lower"),
    ("pdn.solve_s", "s", "lower"),
    ("pdn.iterations", "count", "lower"),
    ("flow.geometry_s", "s", "lower"),
    ("flow.clock_s", "s", "lower"),
    ("flow.dft_s", "s", "lower"),
    ("op.other_s", "s", "lower"),
    ("trace.untraced_op_p50_s", "s", "lower"),
    ("trace.traced_op_p50_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
