"""Command-line interface: ``python -m repro <command>``.

Gives a downstream user the paper's headline analyses without writing
code:

==============  =====================================================
command         output
==============  =====================================================
``table1``      Table I re-derived for a configuration
``flow``        the seven-stage design flow report
``droop``       Fig. 2 droop numbers + ASCII voltage map
``fig6``        the Fig. 6 disconnection Monte Carlo
``clock``       clock setup simulation (optionally with faults)
``resiliency``  clock-coverage Monte Carlo vs fault count
``loadtime``    Section VII JTAG load-time table
``yield``       Section V bonding-yield table
``shmoo``       prototype characterization (frequency binning)
``validate``    cross-subsystem consistency checks
``report``      full Markdown design review (``--output`` to a file)
``bringup``     bring-up sequence on a randomly-faulted wafer
``remap``       logical fault-free grid extraction
``lot``         production-lot binning at 1 vs 2 pillars/pad
``noc``         cycle-level NoC simulation under synthetic traffic
``obs``         summarize/validate telemetry sink files
``verify``      randomized invariant/golden-model verification campaign
==============  =====================================================

All commands accept ``--rows/--cols`` to scale the array and ``--json``
to emit the result as a machine-readable JSON document instead of text.
JSON output is wrapped in the versioned ``repro/v1`` envelope
(``{"schema": "repro/v1", "command": ..., "ok": ..., "manifest": ...,
"result": {...}}``), validated by ``repro obs validate``.
Every command is split into a structured-result core (``run_<command>``
returning a plain dict) and a text renderer (``render_<command>``), so
scripts can import and reuse the computation without scraping stdout.

Monte-Carlo commands (``fig6``, ``resiliency``, ``shmoo``, ``lot``) run
on the parallel experiment engine: ``--workers N`` fans trials across a
process pool (statistics are identical at any worker count for the same
seed) and results are cached on disk under ``.repro_cache`` (override
with ``REPRO_CACHE_DIR``; disable with ``--no-cache``).

Telemetry: ``--trace PATH`` writes a Chrome ``trace_event`` JSON (load
it in Perfetto / ``chrome://tracing``; ``.jsonl`` suffix switches to
JSON-lines) and ``--metrics PATH`` writes the metrics registry plus run
manifests as JSON.  Either flag installs an ambient
:class:`~repro.obs.telemetry.Telemetry` around the command, which the
simulators and the engine pick up; with neither flag the command output
is byte-identical to an un-instrumented run.  Inspect sink files with
``repro obs summarize`` / ``repro obs validate`` (see
``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable

from .config import SystemConfig

# Commands whose trials run on the experiment engine.
ENGINE_COMMANDS = ("fig6", "resiliency", "shmoo", "lot", "collective")


def _jsonify(obj: Any) -> Any:
    """Reduce a result structure to JSON-encodable types."""
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((_jsonify(v) for v in obj), key=repr)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    return obj


# ---------------------------------------------------------------------------
# Structured-result cores: each computes a plain dict.
# ---------------------------------------------------------------------------


def run_table1(config: SystemConfig) -> dict:
    """Table I quantities plus the rendered (label, value) rows."""
    import dataclasses

    from .flow.report import table1_report

    report = table1_report(config)
    return {
        "command": "table1",
        "ok": True,
        "rows": [[label, value] for label, value in report.rows()],
        "metrics": dataclasses.asdict(report),
    }


def run_flow(config: SystemConfig, trials: int = 10) -> dict:
    """Seven-stage design-flow pass: per-stage ok/metrics/notes."""
    from .flow.designer import run_design_flow

    flow = run_design_flow(config, connectivity_trials=trials)
    return {
        "command": "flow",
        "ok": flow.ok,
        "stages": [
            {
                "name": stage.name,
                "ok": stage.ok,
                "metrics": stage.metrics,
                "notes": stage.notes,
            }
            for stage in flow.stages
        ],
    }


def run_droop(config: SystemConfig) -> dict:
    """PDN solve: droop envelope plus the full voltage field."""
    from .pdn.solver import solve_pdn

    solution = solve_pdn(config)
    return {
        "command": "droop",
        "ok": True,
        "max_voltage": solution.max_voltage,
        "min_voltage": solution.min_voltage,
        "total_current_a": solution.total_current_a,
        "supply_power_w": solution.supply_power_w,
        "voltages": solution.voltages.tolist(),
    }


def run_fig6(
    config: SystemConfig,
    trials: int = 10,
    seed: int = 0,
    max_faults: int = 10,
    workers: int = 1,
    cache: Any = None,
) -> dict:
    """Fig. 6 disconnection Monte Carlo over 1..max_faults."""
    from .noc.connectivity import monte_carlo_disconnection

    stats = monte_carlo_disconnection(
        config,
        fault_counts=list(range(1, max_faults + 1)),
        trials=trials,
        seed=seed,
        workers=workers,
        cache=cache,
    )
    return {
        "command": "fig6",
        "ok": True,
        "trials": trials,
        "seed": seed,
        "workers": workers,
        "stats": [
            {
                "fault_count": s.fault_count,
                "mean_single_pct": s.mean_single_pct,
                "mean_dual_pct": s.mean_dual_pct,
                "std_single_pct": s.std_single_pct,
                "std_dual_pct": s.std_dual_pct,
                "improvement": s.improvement,
            }
            for s in stats
        ],
    }


def run_clock(config: SystemConfig, faults: int = 0, seed: int = 0) -> dict:
    """One clock-setup simulation, optionally on a faulted wafer."""
    from .clock.forwarding import render_forwarding_map, simulate_clock_setup
    from .noc.faults import random_fault_map

    faulty = (
        random_fault_map(config, faults, rng=seed).faulty
        if faults
        else frozenset()
    )
    result = simulate_clock_setup(config, faulty=faulty)
    return {
        "command": "clock",
        "ok": True,
        "faults": sorted([list(c) for c in faulty]),
        "coverage": result.coverage,
        "max_hops": result.max_hops,
        "setup_time_us": result.setup_time_s() * 1e6,
        "forwarding_map": render_forwarding_map(result),
    }


def run_resiliency(
    config: SystemConfig,
    trials: int = 10,
    seed: int = 0,
    max_faults: int = 10,
    workers: int = 1,
    cache: Any = None,
) -> dict:
    """Clock-coverage Monte Carlo: the clock-network analogue of Fig. 6."""
    from .clock.resiliency import monte_carlo_clock_coverage

    stats = monte_carlo_clock_coverage(
        config,
        fault_counts=list(range(1, max_faults + 1)),
        trials=trials,
        seed=seed,
        workers=workers,
        cache=cache,
    )
    return {
        "command": "resiliency",
        "ok": True,
        "trials": trials,
        "seed": seed,
        "workers": workers,
        "stats": [
            {
                "fault_count": s.fault_count,
                "trials": s.trials,
                "mean_coverage": s.mean_coverage,
                "min_coverage": s.min_coverage,
                "mean_unreachable": s.mean_unreachable,
            }
            for s in stats
        ],
    }


def run_loadtime(config: SystemConfig) -> dict:
    """Section VII load-time comparison: one chain vs row chains."""
    from .dft.multichain import paper_load_time_comparison

    comparison = paper_load_time_comparison(config)
    return {"command": "loadtime", "ok": True, **comparison}


def run_yield(config: SystemConfig) -> dict:
    """Section V bonding yield at 1 vs 2 pillars per pad."""
    from .io.bonding import BondingYieldModel

    variants = []
    for pillars in (1, 2):
        model = BondingYieldModel(
            chiplet_count=config.chiplets,
            io_count=config.ios_per_compute_chiplet,
            pillars_per_pad=pillars,
        )
        variants.append(
            {
                "pillars_per_pad": pillars,
                "chiplet_yield": model.chiplet_yield,
                "expected_faulty": model.expected_faulty,
            }
        )
    return {"command": "yield", "ok": True, "variants": variants}


def run_shmoo(
    config: SystemConfig,
    seed: int = 0,
    workers: int = 1,
    cache: Any = None,
) -> dict:
    """Simulated prototype characterization (frequency shmoo)."""
    from .flow.characterize import characterize

    result = characterize(config, seed=seed, workers=workers, cache=cache)
    return {
        "command": "shmoo",
        "ok": True,
        "tiles": result.config.tiles,
        "regulated_v_min": float(result.regulated_v.min()),
        "regulated_v_max": float(result.regulated_v.max()),
        "fmax_min_hz": float(result.fmax_hz.min()),
        "fmax_max_hz": float(result.fmax_hz.max()),
        "fmax_mean_hz": result.mean_fmax_hz,
        "system_fmax_hz": result.system_fmax_hz,
        "pass_rate_300mhz": result.passing_fraction(300e6),
        "pass_rate_350mhz": result.passing_fraction(350e6),
    }


def run_validate(config: SystemConfig) -> dict:
    """Cross-subsystem consistency checks."""
    from .flow.validate import validate_design

    report = validate_design(config)
    return {
        "command": "validate",
        "ok": report.ok,
        "checks": [
            {"name": r.name, "ok": r.ok, "detail": r.detail}
            for r in report.results
        ],
    }


def run_report(config: SystemConfig, trials: int = 10, output: str = "") -> dict:
    """Full Markdown design review (optionally written to ``output``)."""
    from .flow.export import design_report_markdown

    markdown = design_report_markdown(config, connectivity_trials=trials)
    return {
        "command": "report",
        "ok": True,
        "output": output,
        "markdown": markdown,
    }


def run_bringup(config: SystemConfig, faults: int = 0, seed: int = 0) -> dict:
    """Bring-up sequence on a randomly-faulted wafer."""
    from .flow.bringup import run_bringup as _run_bringup
    from .noc.faults import random_fault_map

    true_faults = set(random_fault_map(config, faults, rng=seed).faulty)
    report = _run_bringup(config, true_bonding_faults=true_faults)
    final = report.final_map
    return {
        "command": "bringup",
        "ok": True,
        "bonding_faults": [list(c) for c in sorted(report.bonding_faults)],
        "unroll_tests_run": report.unroll_tests_run,
        "clock_unreachable": [list(c) for c in sorted(report.clock_unreachable)],
        "usable_tiles": report.usable_tiles,
        "tiles": config.tiles,
        "final_map": {
            "rows": final.config.rows,
            "cols": final.config.cols,
            "faulty": sorted([list(c) for c in final.faulty]),
        },
    }


def run_remap(config: SystemConfig, faults: int = 0, seed: int = 0) -> dict:
    """Logical fault-free grid extraction on a random fault map."""
    from .noc.faults import random_fault_map
    from .noc.remap import (
        best_logical_grid,
        largest_fault_free_rectangle,
        row_column_deletion,
    )

    fmap = random_fault_map(config, faults, rng=seed)
    grids = {
        "rectangle": largest_fault_free_rectangle(fmap),
        "deletion": row_column_deletion(fmap),
        "best": best_logical_grid(fmap),
    }
    return {
        "command": "remap",
        "ok": True,
        "faults": [list(c) for c in sorted(fmap.faulty)],
        **{
            name: {"rows": g.rows, "cols": g.cols, "tiles": g.tiles}
            for name, g in grids.items()
        },
    }


def run_lot(
    config: SystemConfig,
    wafers: int = 50,
    seed: int = 0,
    workers: int = 1,
    cache: Any = None,
) -> dict:
    """Production-lot binning at 1 vs 2 pillars per pad."""
    from .yieldmodel.lots import pillar_redundancy_lot_comparison

    lots = pillar_redundancy_lot_comparison(
        config, wafers=wafers, seed=seed, workers=workers, cache=cache
    )
    return {
        "command": "lot",
        "ok": True,
        "wafers": wafers,
        "workers": workers,
        "variants": [
            {
                "pillars_per_pad": pillars,
                "bins": dict(report.bins),
                "mean_faults": report.mean_faults,
                "sellable_fraction": report.sellable_fraction,
            }
            for pillars, report in lots.items()
        ],
    }


def run_noc(
    config: SystemConfig,
    cycles: int = 200,
    rate: float = 0.05,
    pattern: str = "uniform",
    seed: int = 0,
    faults: int = 0,
    engine: str = "reference",
    check: bool = False,
    checkpoint: str | None = None,
    checkpoint_every: int = 0,
    resume: str | None = None,
    halt_at: int | None = None,
) -> dict:
    """Cycle-level NoC simulation under a synthetic traffic pattern.

    Injects requests on the X-Y network (responses return on Y-X per the
    hardware's request/response split), runs for ``cycles`` cycles, then
    drains in-flight traffic.  With an ambient telemetry installed
    (``--trace``/``--metrics``) this is the richest trace source in the
    CLI: one span per step epoch and per delivered packet, all in the
    simulation-cycle time domain.

    ``check=True`` (the ``--check`` flag) attaches the cheap always-on
    invariant checkers (flit conservation + delivery legality) to the
    live run; any violation aborts the command with a structured error.

    Checkpointing: ``--checkpoint PATH --checkpoint-every K`` rewrites a
    resumable snapshot every K cycles (and once at the end of the run);
    ``--halt-at N`` stops stepping at cycle N without draining and
    writes a final snapshot — the pair exists so a later process can
    ``--resume PATH`` and finish the run.  The manifest round-trips the
    traffic parameters, so a resume re-derives the identical injection
    schedule and continues bit-identically to a run that never stopped
    (resume validates those parameters against the command line and
    refuses on mismatch).  Checkpoints are engine-portable: you may
    halt on ``fast`` and resume on ``vector``.
    """
    from .noc.faults import random_fault_map
    from .noc.simulator import NocSimulator
    from .workloads.traffic import TrafficPattern, drive_schedule, traffic_schedule

    if checkpoint_every and not checkpoint:
        raise SystemExit("--checkpoint-every requires --checkpoint PATH")
    if halt_at is not None and not checkpoint:
        raise SystemExit("--halt-at requires --checkpoint PATH")

    checkers = None
    if check:
        from .verify import default_noc_checkers

        checkers = default_noc_checkers()
    extra = {
        "pattern": pattern,
        "rate": rate,
        "seed": seed,
        "faults": faults,
        "rows": config.rows,
        "cols": config.cols,
        "warm_cycles": cycles,
    }
    resumed_at: int | None = None
    if resume:
        from .noc.checkpoint import read_checkpoint_manifest

        saved = read_checkpoint_manifest(resume).get("extra") or {}
        mismatched = {
            key: {"checkpoint": saved[key], "requested": value}
            for key, value in extra.items()
            if key in saved and saved[key] != value
        }
        if mismatched:
            raise SystemExit(
                "cannot resume: checkpoint traffic parameters disagree "
                f"with the command line: {mismatched}"
            )
        sim = NocSimulator.load_state(resume, engine=engine, checkers=checkers)
        resumed_at = sim.cycle
    else:
        fault_map = random_fault_map(config, faults, rng=seed) if faults else None
        sim = NocSimulator(
            config, fault_map=fault_map, engine=engine, checkers=checkers
        )

    schedule = traffic_schedule(
        config, TrafficPattern(pattern), rate, cycles, seed=seed
    )
    horizon = cycles if halt_at is None else min(cycles, max(0, halt_at))
    checkpoints_written = 0

    def step_once() -> None:
        nonlocal checkpoints_written
        sim.step()
        if (
            checkpoint
            and checkpoint_every
            and sim.cycle % checkpoint_every == 0
            and sim.cycle < horizon
        ):
            sim.save_state(checkpoint, extra=extra)
            checkpoints_written += 1

    drive_schedule(sim, schedule, horizon, step=step_once)

    halted = halt_at is not None and sim.cycle < cycles
    if not halted:
        sim.drain()
    if checkpoint:
        sim.save_state(checkpoint, extra=extra)
        checkpoints_written += 1
    report = sim.report()
    return {
        "command": "noc",
        "ok": True,
        "engine": engine,
        "pattern": pattern,
        "rate": rate,
        "seed": seed,
        "faults": faults,
        "warm_cycles": cycles,
        "checkpoint": checkpoint,
        "checkpoints_written": checkpoints_written,
        "resumed_from": resume,
        "resumed_at_cycle": resumed_at,
        "halted": halted,
        "cycles": report.cycles,
        "injected": report.injected,
        "delivered": report.delivered,
        "responses_delivered": report.responses_delivered,
        "dropped_unreachable": report.dropped_unreachable,
        "dropped_in_flight": report.dropped_in_flight,
        "in_flight": report.in_flight,
        "flit_conservation_ok": report.flit_conservation_ok,
        "checked": check,
        "link_stalls": sim.link_stalls,
        "mean_latency": report.mean_latency,
        "p99_latency": report.p99_latency,
        "throughput_packets_per_cycle": report.throughput_packets_per_cycle,
        "per_network_delivered": {
            net.name: count for net, count in report.per_network_delivered.items()
        },
    }


def run_emu(
    config: SystemConfig,
    workload: str = "wave",
    engine: str | None = None,
    faults: int = 0,
    seed: int = 0,
) -> dict:
    """Run one emulated workload end to end and report its accounting.

    Mirrors ``repro noc``'s engine parity: ``--engine`` picks the
    emulator (``fast``, the default, and ``reference`` both run the
    scalar per-flow oracle; ``vector`` the struct-of-arrays engine) and
    the resolved kind is echoed in the result envelope.  Every engine
    produces bit-identical :class:`~repro.arch.emulator.EmulationStats` — this
    command exists to eyeball that, and to give traced runs
    (``--trace``/``--metrics``) a workload-level span source.
    """
    import numpy as np

    from .arch.system import WaferscaleSystem
    from .fastpath import VECTOR_ENGINE_KINDS, resolve_engine_kind
    from .noc.faults import random_fault_map
    from .workloads.graphs import random_graph

    kind = resolve_engine_kind(
        engine, entry_point="repro emu", kinds=VECTOR_ENGINE_KINDS
    )
    fault_map = random_fault_map(config, faults, rng=seed) if faults else None
    system = WaferscaleSystem(config, fault_map)
    detail: dict = {}
    if workload == "wave":
        from .workloads.waves import FrontierWave

        stats = FrontierWave(system, seed=seed).run(engine=kind)
    elif workload == "bfs":
        from .workloads.bfs import DistributedBfs

        graph = random_graph(nodes=64, seed=seed)
        result = DistributedBfs(system, graph).run(0, engine=kind)
        stats = result.stats
        detail["reached"] = len(result.distance)
    elif workload == "pagerank":
        from .workloads.pagerank import DistributedPageRank

        graph = random_graph(nodes=64, seed=seed)
        result = DistributedPageRank(system, graph).run(
            iterations=10, engine=kind
        )
        stats = result.stats
        detail["iterations"] = result.iterations
    elif workload == "stencil":
        from .workloads.stencil import DistributedStencil

        if faults:
            raise SystemExit(
                "stencil blocks pin to physical tiles: drop --faults"
            )
        field = np.random.default_rng(seed).random(
            (config.rows * 4, config.cols * 4)
        )
        result = DistributedStencil(system, field).run(10, engine=kind)
        stats = result.stats
        detail["iterations"] = result.iterations
    else:
        raise SystemExit(f"unknown emu workload {workload!r}")
    return {
        "command": "emu",
        "ok": True,
        "engine": kind,
        "workload": workload,
        "rows": config.rows,
        "cols": config.cols,
        "faults": faults,
        "seed": seed,
        "supersteps": stats.supersteps,
        "messages_sent": stats.messages_sent,
        "message_hops": stats.message_hops,
        "detoured_messages": stats.detoured_messages,
        "local_compute_cycles": stats.local_compute_cycles,
        "network_cycles": stats.network_cycles,
        "total_cycles": stats.total_cycles,
        "mean_hops_per_message": stats.mean_hops_per_message,
        **detail,
    }


def run_collective(
    config: SystemConfig,
    pattern: str = "ring-all-reduce",
    backend: str = "noc",
    engine: str | None = None,
    faults: int = 0,
    seed: int = 0,
    ranks: int | None = None,
    segments: int = 2,
    root: int = 0,
    stages: int = 2,
    microbatches: int = 4,
    placement: str = "row-major",
    sweep_faults: str | list[int] | None = None,
    trials: int = 10,
    workers: int = 1,
    cache=None,
) -> dict:
    """Run one collective workload (or a fault sweep) with its oracle.

    ``--backend noc`` compiles the collective to a packet schedule and
    drives the selected :class:`~repro.noc.simulator.NocSimulator`
    engine; ``--backend emu`` runs the live
    :class:`~repro.workloads.collectives.CollectiveDriver` on the
    matching emulator engine.  Either way the completion oracle verifies
    every participant tile's final reduced value in-simulation, and the
    resolved ``engine`` kind is echoed in the result.

    ``--sweep-faults 0,4,8`` switches to the figure-style experiment:
    achieved bandwidth vs fault count over experiment-engine trials
    (each drawing its own nested fault maps), honoring ``--workers``
    and the on-disk result cache.

    ``--pattern dataflow`` runs the demo layer-DAG workload from
    :mod:`repro.workloads.dataflow` through the same machinery.
    """
    from .arch.system import WaferscaleSystem
    from .noc.faults import random_fault_map
    from .workloads.collectives import (
        CollectiveDriver,
        CollectiveSpec,
        achieved_bandwidth,
        collective_fault_sweep,
        compile_noc,
        run_noc_collective,
    )

    kind = engine or "reference"
    spec = CollectiveSpec(
        pattern=pattern if pattern != "dataflow" else "ring-all-reduce",
        seed=seed,
        ranks=ranks,
        segments=segments,
        root=root,
        stages=stages,
        microbatches=microbatches,
        placement=placement,
    )
    base = {
        "command": "collective",
        "ok": True,
        "engine": kind,
        "backend": backend,
        "pattern": pattern,
        "placement": placement,
        "rows": config.rows,
        "cols": config.cols,
        "faults": faults,
        "seed": seed,
    }

    if sweep_faults is not None:
        if isinstance(sweep_faults, str):
            counts = [int(c) for c in sweep_faults.split(",") if c.strip()]
        else:
            counts = list(sweep_faults)
        if pattern == "dataflow":
            raise SystemExit("--sweep-faults supports the spec patterns only")
        sweep = collective_fault_sweep(
            config,
            spec,
            counts,
            trials=trials,
            seed=seed,
            engine=kind,
            workers=workers,
            cache=cache,
        )
        return {**base, "mode": "sweep", "trials": sweep["trials"],
                "points": sweep["points"]}

    program = None
    if pattern == "dataflow":
        from .workloads.dataflow import demo_graph

        graph = demo_graph(seed=seed)
        program = graph.build_program()
        spec = CollectiveSpec(seed=seed, placement=placement)
    fault_map = random_fault_map(config, faults, rng=seed) if faults else None

    if backend == "noc":
        coll = compile_noc(config, fault_map, spec, program=program)
        report, checks = run_noc_collective(coll, engine=kind)
        return {
            **base,
            "mode": "single",
            "ranks": coll.program.ranks,
            "phases": len(coll.program.phases),
            "packets": coll.packets,
            "detoured_transfers": coll.detoured_transfers,
            "cycles": report.cycles,
            "delivered": report.delivered,
            "bandwidth_words_per_cycle": achieved_bandwidth(coll, report),
            "oracle_checks": checks,
        }
    if backend == "emu":
        from .fastpath import VECTOR_ENGINE_KINDS, resolve_engine_kind

        kind = resolve_engine_kind(
            engine, entry_point="repro collective", kinds=VECTOR_ENGINE_KINDS
        )
        system = WaferscaleSystem(config, fault_map)
        driver = CollectiveDriver(system, spec, program=program)
        stats = driver.run(engine=kind)
        return {
            **base,
            "engine": kind,
            "mode": "single",
            "ranks": driver.program.ranks,
            "phases": len(driver.program.phases),
            "supersteps": stats.supersteps,
            "messages_sent": stats.messages_sent,
            "detoured_messages": stats.detoured_messages,
            "total_cycles": stats.total_cycles,
            "oracle_checks": driver.verify(),
        }
    raise SystemExit(f"unknown collective backend {backend!r}")


def run_verify_cmd(
    suite: str = "all",
    trials: int = 25,
    seed: int = 0,
    rows: int = 8,
    cols: int = 8,
    workers: int = 1,
) -> dict:
    """Randomized invariant/golden-model verification campaign.

    Runs the selected :mod:`repro.verify.campaign` suites — fast engine
    vs reference engine vs naive oracle with invariant checkers attached
    — and returns the JSON verdict.  Exit code is nonzero when any suite
    fails.
    """
    from .verify import run_verify

    verdict = run_verify(
        suite=suite, trials=trials, seed=seed, rows=rows, cols=cols, workers=workers
    )
    return {"command": "verify", "ok": verdict["passed"], **verdict}


def run_obs(
    action: str,
    paths: list[str],
    threshold: float = 0.1,
    ignore: str | None = None,
) -> dict:
    """Validate, summarize or diff telemetry sink files."""
    from .errors import ObsError
    from .obs import diff_files, summarize_file, validate_file

    if action == "diff":
        if len(paths) != 2:
            raise SystemExit("obs diff takes exactly two paths: A.json B.json")
        try:
            report = diff_files(
                paths[0], paths[1], threshold=threshold, ignore=ignore
            )
        except ObsError as exc:
            return {
                "command": "obs", "ok": False, "action": action,
                "error": str(exc), "files": [],
            }
        return {
            "command": "obs",
            "ok": report.ok,
            "action": action,
            "diff": report.to_dict(),
            "rendered": report.render(),
            "files": [],
        }

    files = []
    ok = True
    for path in paths:
        entry: dict[str, Any] = {"path": path}
        try:
            if action == "summarize":
                kind, text = summarize_file(path)
                entry.update({"kind": kind, "ok": True, "summary": text})
            else:
                kind, problems = validate_file(path)
                entry.update(
                    {"kind": kind, "ok": not problems, "problems": problems}
                )
        except (OSError, ObsError) as exc:
            entry.update({"kind": "unknown", "ok": False, "error": str(exc)})
        ok = ok and entry["ok"]
        files.append(entry)
    return {"command": "obs", "ok": ok, "action": action, "files": files}


# ---------------------------------------------------------------------------
# Renderers: result dict -> the historical text output, byte-identical.
# ---------------------------------------------------------------------------


def render_table1(result: dict) -> str:
    rows = result["rows"]
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label:<{width}}  {value}" for label, value in rows)


def render_flow(result: dict) -> str:
    lines = []
    for stage in result["stages"]:
        mark = "PASS" if stage["ok"] else "FAIL"
        lines.append(f"[{mark}] {stage['name']}: {stage['notes']}")
    return "\n".join(lines)


def render_droop(result: dict) -> str:
    import numpy as np

    from .analysis.render import render_field

    return (
        f"edge {result['max_voltage']:.3f}V -> centre {result['min_voltage']:.3f}V, "
        f"{result['total_current_a']:.0f}A, {result['supply_power_w']:.0f}W"
        "\n" + render_field(np.array(result["voltages"]))
    )


def render_fig6(result: dict) -> str:
    lines = [f"{'faults':>7} {'single %':>9} {'dual %':>8}"]
    for s in result["stats"]:
        lines.append(
            f"{s['fault_count']:>7} {s['mean_single_pct']:>9.2f} "
            f"{s['mean_dual_pct']:>8.3f}"
        )
    return "\n".join(lines)


def render_clock(result: dict) -> str:
    return (
        result["forwarding_map"]
        + "\n"
        + f"coverage {result['coverage']:.1%}, max depth {result['max_hops']} hops, "
        f"setup {result['setup_time_us']:.1f}us"
    )


def render_resiliency(result: dict) -> str:
    lines = [f"{'faults':>7} {'coverage %':>11} {'min %':>8} {'unreachable':>12}"]
    for s in result["stats"]:
        lines.append(
            f"{s['fault_count']:>7} {s['mean_coverage'] * 100:>11.2f} "
            f"{s['min_coverage'] * 100:>8.2f} {s['mean_unreachable']:>12.3f}"
        )
    return "\n".join(lines)


def render_loadtime(result: dict) -> str:
    return (
        f"single chain: {result['single_chain_hours']:.2f} h\n"
        f"row chains:   {result['multi_chain_minutes']:.2f} min\n"
        f"speedup:      {result['speedup']:.0f}x"
    )


def render_yield(result: dict) -> str:
    return "\n".join(
        f"{v['pillars_per_pad']} pillar(s)/pad: "
        f"chiplet yield {v['chiplet_yield']:.5f}, "
        f"expected faulty {v['expected_faulty']:.2f}"
        for v in result["variants"]
    )


def render_shmoo(result: dict) -> str:
    return "\n".join(
        [
            f"tiles: {result['tiles']}",
            f"regulated voltage: {result['regulated_v_min']:.3f}"
            f"-{result['regulated_v_max']:.3f} V",
            f"per-tile fmax: {result['fmax_min_hz'] / 1e6:.0f}"
            f"-{result['fmax_max_hz'] / 1e6:.0f} MHz "
            f"(mean {result['fmax_mean_hz'] / 1e6:.0f})",
            f"system lock-step fmax: {result['system_fmax_hz'] / 1e6:.0f} MHz",
            f"pass rate at 300MHz nominal: {result['pass_rate_300mhz']:.1%}",
            f"pass rate at 350MHz: {result['pass_rate_350mhz']:.1%}",
        ]
    )


def render_validate(result: dict) -> str:
    return "\n".join(
        f"[{'OK' if c['ok'] else 'VIOLATED'}] {c['name']}: {c['detail']}"
        for c in result["checks"]
    )


def render_report(result: dict) -> str:
    if result["output"]:
        return f"wrote design report to {result['output']}"
    return result["markdown"]


def render_bringup(result: dict) -> str:
    unreachable = [tuple(c) for c in result["clock_unreachable"]]
    return "\n".join(
        [
            f"dead tiles located: {[tuple(c) for c in result['bonding_faults']]}",
            f"unroll tests run:   {result['unroll_tests_run']}",
            f"clock-unreachable:  {unreachable or 'none'}",
            f"usable tiles:       {result['usable_tiles']}/{result['tiles']}",
            json.dumps(result["final_map"], indent=2),
        ]
    )


def render_remap(result: dict) -> str:
    rect, deletion, best = result["rectangle"], result["deletion"], result["best"]
    return "\n".join(
        [
            f"faults: {[tuple(c) for c in result['faults']]}",
            f"contiguous rectangle: {rect['rows']}x{rect['cols']}"
            f" = {rect['tiles']} tiles",
            f"row/col deletion:     {deletion['rows']}x{deletion['cols']}"
            f" = {deletion['tiles']} tiles",
            f"best logical grid:    {best['rows']}x{best['cols']}"
            f" = {best['tiles']} tiles",
        ]
    )


def render_lot(result: dict) -> str:
    return "\n".join(
        f"{v['pillars_per_pad']} pillar(s)/pad: {v['bins']} "
        f"(mean faults {v['mean_faults']:.2f}, "
        f"sellable {v['sellable_fraction']:.0%})"
        for v in result["variants"]
    )


def render_noc(result: dict) -> str:
    per_net = ", ".join(
        f"{name} {count}"
        for name, count in sorted(result["per_network_delivered"].items())
    )
    lifecycle = "halted at" if result.get("halted") else "drained at"
    extra_lines = []
    if result.get("resumed_from"):
        extra_lines.append(
            f"resumed from {result['resumed_from']} "
            f"at cycle {result['resumed_at_cycle']}"
        )
    if result.get("checkpoint"):
        extra_lines.append(
            f"checkpoint: {result['checkpoint']} "
            f"({result['checkpoints_written']} snapshot(s) written)"
        )
    return "\n".join(
        [
            f"pattern {result['pattern']} @ {result['rate']:g} pkt/tile/cycle, "
            f"{result['warm_cycles']} cycles ({lifecycle} {result['cycles']}, "
            f"{result['engine']} engine)",
            f"injected {result['injected']}, delivered {result['delivered']} "
            f"({result['responses_delivered']} responses), "
            f"dropped {result['dropped_unreachable']}",
            f"latency: mean {result['mean_latency']:.2f} cycles, "
            f"p99 {result['p99_latency']:.1f}",
            f"throughput: {result['throughput_packets_per_cycle']:.3f} pkt/cycle",
            f"per-network delivered: {per_net}",
            f"link stalls: {result['link_stalls']}",
        ]
        + extra_lines
    )


def render_emu(result: dict) -> str:
    lines = [
        f"Emulated {result['workload']} on "
        f"{result['rows']}x{result['cols']} "
        f"({result['faults']} faults, engine={result['engine']}):",
        f"  supersteps        : {result['supersteps']}",
        f"  messages sent     : {result['messages_sent']} "
        f"({result['detoured_messages']} detoured)",
        f"  mean hops/message : {result['mean_hops_per_message']:.2f}",
        f"  compute cycles    : {result['local_compute_cycles']}",
        f"  network cycles    : {result['network_cycles']}",
        f"  total cycles      : {result['total_cycles']}",
    ]
    return "\n".join(lines)


def render_collective(result: dict) -> str:
    head = (
        f"Collective {result['pattern']} on "
        f"{result['rows']}x{result['cols']} "
        f"({result['faults']} faults, placement={result['placement']}, "
        f"engine={result['engine']}):"
    )
    if result["mode"] == "sweep":
        lines = [head, "  faults  trials_ok  words/cycle  mean cycles"]
        for point in result["points"]:
            lines.append(
                f"  {point['faults']:>6}  {point['trials_ok']:>9}  "
                f"{point['mean_bandwidth_words_per_cycle']:>11.4f}  "
                f"{point['mean_cycles']:>11.1f}"
            )
        return "\n".join(lines)
    lines = [
        head,
        f"  ranks             : {result['ranks']}",
        f"  phases            : {result['phases']}",
    ]
    if result["backend"] == "noc":
        lines += [
            f"  packets           : {result['packets']} "
            f"({result['detoured_transfers']} detoured transfers)",
            f"  cycles            : {result['cycles']}",
            f"  bandwidth         : "
            f"{result['bandwidth_words_per_cycle']:.4f} words/cycle",
        ]
    else:
        lines += [
            f"  supersteps        : {result['supersteps']}",
            f"  messages sent     : {result['messages_sent']} "
            f"({result['detoured_messages']} detoured)",
            f"  total cycles      : {result['total_cycles']}",
        ]
    lines.append(f"  oracle checks     : {result['oracle_checks']} (all passed)")
    return "\n".join(lines)


def render_verify(result: dict) -> str:
    lines = [
        f"verification campaign: suite={result['suite']} "
        f"trials={result['trials']} seed={result['seed']} "
        f"array={result['rows']}x{result['cols']}"
    ]
    for name, entry in result["suites"].items():
        if entry["passed"]:
            lines.append(
                f"[PASS] {name}: {entry['trials']} trials, "
                f"{entry['checks']} invariant checks "
                f"({entry['elapsed_s']:.2f}s)"
            )
        else:
            failure = entry.get("failure", {})
            lines.append(
                f"[FAIL] {name}: {failure.get('message', 'unknown failure')}"
            )
            context = failure.get("context") or {}
            for key, value in context.items():
                lines.append(f"       {key} = {value}")
    lines.append("VERDICT: " + ("PASS" if result["ok"] else "FAIL"))
    return "\n".join(lines)


def render_obs(result: dict) -> str:
    if result.get("action") == "diff":
        if result.get("error"):
            return f"obs diff: ERROR {result['error']}"
        return result["rendered"]
    lines = []
    for entry in result["files"]:
        if "summary" in entry:
            lines.append(entry["summary"])
        elif entry.get("error"):
            lines.append(f"{entry['path']}: ERROR {entry['error']}")
        elif entry["ok"]:
            lines.append(f"{entry['path']}: valid {entry['kind']} file")
        else:
            lines.append(
                f"{entry['path']}: INVALID {entry['kind']} file\n  "
                + "\n  ".join(entry["problems"])
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Argument plumbing.
# ---------------------------------------------------------------------------


def _add_size_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rows", type=int, default=32, help="tile rows")
    parser.add_argument("--cols", type=int, default=32, help="tile columns")


def _config(args: argparse.Namespace) -> SystemConfig:
    return SystemConfig.from_dict({"rows": args.rows, "cols": args.cols})


def _engine_kwargs(args: argparse.Namespace) -> dict:
    """Engine options for commands that run on the experiment engine."""
    return {
        "workers": getattr(args, "workers", 1),
        "cache": None if getattr(args, "no_cache", False) else True,
    }


_RUNNERS: dict[str, Callable[[argparse.Namespace], dict]] = {
    "table1": lambda a: run_table1(_config(a)),
    "flow": lambda a: run_flow(_config(a), trials=a.trials),
    "droop": lambda a: run_droop(_config(a)),
    "fig6": lambda a: run_fig6(
        _config(a), trials=a.trials, seed=a.seed,
        max_faults=a.max_faults, **_engine_kwargs(a),
    ),
    "clock": lambda a: run_clock(_config(a), faults=a.faults, seed=a.seed),
    "resiliency": lambda a: run_resiliency(
        _config(a), trials=a.trials, seed=a.seed,
        max_faults=a.max_faults, **_engine_kwargs(a),
    ),
    "loadtime": lambda a: run_loadtime(_config(a)),
    "yield": lambda a: run_yield(_config(a)),
    "shmoo": lambda a: run_shmoo(_config(a), seed=a.seed, **_engine_kwargs(a)),
    "validate": lambda a: run_validate(_config(a)),
    "report": lambda a: run_report(_config(a), trials=a.trials, output=a.output),
    "bringup": lambda a: run_bringup(_config(a), faults=a.faults, seed=a.seed),
    "remap": lambda a: run_remap(_config(a), faults=a.faults, seed=a.seed),
    "lot": lambda a: run_lot(
        _config(a), wafers=a.wafers, seed=a.seed, **_engine_kwargs(a),
    ),
    "noc": lambda a: run_noc(
        _config(a), cycles=a.cycles, rate=a.rate,
        pattern=a.pattern, seed=a.seed, faults=a.faults,
        engine=a.engine, check=a.check,
        checkpoint=a.checkpoint, checkpoint_every=a.checkpoint_every,
        resume=a.resume, halt_at=a.halt_at,
    ),
    "emu": lambda a: run_emu(
        _config(a), workload=a.workload, engine=a.engine,
        faults=a.faults, seed=a.seed,
    ),
    "collective": lambda a: run_collective(
        _config(a), pattern=a.pattern, backend=a.backend, engine=a.engine,
        faults=a.faults, seed=a.seed, ranks=a.ranks, segments=a.segments,
        root=a.root, stages=a.stages, microbatches=a.microbatches,
        placement=a.placement, sweep_faults=a.sweep_faults, trials=a.trials,
        **_engine_kwargs(a),
    ),
    "obs": lambda a: run_obs(
        a.action, a.paths,
        threshold=getattr(a, "threshold", 0.1),
        ignore=getattr(a, "ignore", None) or None,
    ),
    "verify": lambda a: run_verify_cmd(
        suite=a.suite, trials=a.trials, seed=a.seed,
        rows=a.rows, cols=a.cols, workers=a.workers,
    ),
}

_RENDERERS: dict[str, Callable[[dict], str]] = {
    "table1": render_table1,
    "flow": render_flow,
    "droop": render_droop,
    "fig6": render_fig6,
    "clock": render_clock,
    "resiliency": render_resiliency,
    "loadtime": render_loadtime,
    "yield": render_yield,
    "shmoo": render_shmoo,
    "validate": render_validate,
    "report": render_report,
    "bringup": render_bringup,
    "remap": render_remap,
    "lot": render_lot,
    "noc": render_noc,
    "emu": render_emu,
    "collective": render_collective,
    "obs": render_obs,
    "verify": render_verify,
}


def _dispatch(args: argparse.Namespace) -> int:
    """Run one command: compute the dict, emit JSON or text, exit code.

    When ``--trace`` or ``--metrics`` is given, a live
    :class:`~repro.obs.telemetry.Telemetry` is installed as the ambient
    one for the duration of the command and the requested sink files are
    written afterwards.  Without either flag nothing is installed and
    the command runs exactly as before.
    """
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    manifest = None
    if trace_path or metrics_path:
        from .obs import Telemetry, use_telemetry

        telemetry = Telemetry()
        with use_telemetry(telemetry):
            result = _RUNNERS[args.command](args)
        if trace_path:
            telemetry.write_trace(trace_path)
        if metrics_path:
            telemetry.write_metrics(metrics_path)
        if telemetry.manifests:
            manifest = telemetry.manifests[-1].to_dict()
    else:
        result = _RUNNERS[args.command](args)
    if args.command == "report" and result["output"]:
        with open(result["output"], "w", encoding="utf-8") as handle:
            handle.write(result["markdown"])
    if getattr(args, "json", False):
        from .obs import make_envelope

        envelope = make_envelope(_jsonify(result), manifest=manifest)
        print(json.dumps(envelope, indent=2))
    else:
        print(_RENDERERS[args.command](result))
    return 0 if result.get("ok", True) else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Waferscale chiplet processor design-flow analyses",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the command's structured result as JSON",
    )
    parser.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="PATH",
        help="write a Chrome trace_event JSON of the run "
        "(.jsonl suffix for JSON-lines)",
    )
    parser.add_argument(
        "--metrics",
        type=str,
        default=None,
        metavar="PATH",
        help="write the metrics registry and run manifests as JSON",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, extras in (
        ("table1", ()),
        ("flow", ("trials",)),
        ("droop", ()),
        ("fig6", ("trials", "seed", "max_faults")),
        ("clock", ("seed", "faults")),
        ("resiliency", ("trials", "seed", "max_faults")),
        ("loadtime", ()),
        ("yield", ()),
        ("shmoo", ("seed",)),
        ("report", ("trials", "output")),
        ("bringup", ("seed", "faults")),
        ("remap", ("seed", "faults")),
        ("lot", ("seed", "wafers")),
        ("noc", ("seed", "faults", "cycles", "rate", "pattern", "sim_engine",
                 "noc_checkpoint")),
        ("emu", ("seed", "faults", "emu_engine", "workload")),
        ("collective", ("trials", "seed", "faults", "collective_opts")),
        ("validate", ()),
    ):
        p = sub.add_parser(name)
        _add_size_args(p)
        # Accept --json/--trace/--metrics after the subcommand too;
        # SUPPRESS keeps the top-level default when a flag is absent here.
        p.add_argument(
            "--json",
            action="store_true",
            default=argparse.SUPPRESS,
            help=argparse.SUPPRESS,
        )
        for sink in ("--trace", "--metrics"):
            p.add_argument(
                sink,
                type=str,
                default=argparse.SUPPRESS,
                metavar="PATH",
                help=argparse.SUPPRESS,
            )
        if "trials" in extras:
            p.add_argument("--trials", type=int, default=10)
        if "seed" in extras:
            p.add_argument("--seed", type=int, default=0)
        if "max_faults" in extras:
            p.add_argument("--max-faults", dest="max_faults", type=int, default=10)
        if "faults" in extras:
            p.add_argument("--faults", type=int, default=0)
        if "output" in extras:
            p.add_argument("--output", type=str, default="")
        if "wafers" in extras:
            p.add_argument("--wafers", type=int, default=50)
        if "cycles" in extras:
            p.add_argument("--cycles", type=int, default=200)
        if "rate" in extras:
            p.add_argument(
                "--rate",
                type=float,
                default=0.05,
                help="packet injection rate per tile per cycle",
            )
        if "pattern" in extras:
            from .workloads.traffic import TrafficPattern

            p.add_argument(
                "--pattern",
                type=str,
                default="uniform",
                choices=[t.value for t in TrafficPattern],
            )
        if "sim_engine" in extras:
            from .noc.simulator import ENGINES

            p.add_argument(
                "--engine",
                type=str,
                default="reference",
                choices=list(ENGINES),
                help="simulation core: the object-model reference engine "
                "or the batched numpy vector engine (fast is an alias of "
                "reference) — all bit-identical",
            )
            p.add_argument(
                "--check",
                action="store_true",
                help="attach the always-on invariant checkers "
                "(flit conservation + delivery legality) to the run",
            )
        if "emu_engine" in extras:
            from .arch.emulator import ENGINES as EMULATOR_ENGINES

            p.add_argument(
                "--engine",
                type=str,
                default=None,
                choices=list(EMULATOR_ENGINES),
                help="emulator: reference or fast (default) run the "
                "scalar per-flow oracle, vector the struct-of-arrays "
                "engine — all bit-identical",
            )
        if "workload" in extras:
            p.add_argument(
                "--workload",
                type=str,
                default="wave",
                choices=("wave", "bfs", "pagerank", "stencil"),
                help="emulated workload to run end to end",
            )
        if "collective_opts" in extras:
            from .noc.simulator import ENGINES as NOC_ENGINES
            from .workloads.collectives import PATTERNS, PLACEMENTS

            p.add_argument(
                "--pattern",
                type=str,
                default="ring-all-reduce",
                choices=list(PATTERNS) + ["dataflow"],
                help="collective pattern, or the demo layer-DAG dataflow",
            )
            p.add_argument(
                "--backend",
                type=str,
                default="noc",
                choices=("noc", "emu"),
                help="compile to NoC packet schedules or run the live "
                "emulator driver",
            )
            p.add_argument(
                "--engine",
                type=str,
                default=None,
                choices=list(NOC_ENGINES),
                help="simulation/emulation engine: reference or vector, "
                "fast being an alias of reference (default: reference "
                "for --backend noc, resolved default for --backend emu)",
            )
            p.add_argument(
                "--ranks",
                type=int,
                default=None,
                help="participant count (default: every healthy tile)",
            )
            p.add_argument("--segments", type=int, default=2)
            p.add_argument("--root", type=int, default=0)
            p.add_argument("--stages", type=int, default=2)
            p.add_argument("--microbatches", type=int, default=4)
            p.add_argument(
                "--placement",
                type=str,
                default="row-major",
                choices=list(PLACEMENTS),
            )
            p.add_argument(
                "--sweep-faults",
                dest="sweep_faults",
                type=str,
                default=None,
                metavar="N,N,...",
                help="comma-separated fault counts: run the bandwidth-vs-"
                "faults sweep on the experiment engine instead of one run",
            )
        if "noc_checkpoint" in extras:
            p.add_argument(
                "--checkpoint",
                type=str,
                default=None,
                metavar="PATH",
                help="write a resumable .npz snapshot of the run to PATH",
            )
            p.add_argument(
                "--checkpoint-every",
                dest="checkpoint_every",
                type=int,
                default=0,
                metavar="K",
                help="rewrite the --checkpoint snapshot every K cycles",
            )
            p.add_argument(
                "--resume",
                type=str,
                default=None,
                metavar="PATH",
                help="resume from a --checkpoint snapshot and continue the "
                "run bit-identically (traffic parameters must match)",
            )
            p.add_argument(
                "--halt-at",
                dest="halt_at",
                type=int,
                default=None,
                metavar="N",
                help="stop stepping at cycle N without draining and write "
                "the final --checkpoint snapshot (for later --resume)",
            )
        if name in ENGINE_COMMANDS:
            p.add_argument(
                "--workers",
                type=int,
                default=1,
                help="experiment-engine worker processes (0 = all CPUs)",
            )
            p.add_argument(
                "--no-cache",
                dest="no_cache",
                action="store_true",
                help="bypass the on-disk result cache",
            )
        p.set_defaults(handler=_dispatch)

    # `obs` works on sink files, not a wafer configuration, so it sits
    # outside the sized-command loop: no --rows/--cols.
    obs = sub.add_parser("obs", help="inspect telemetry sink files")
    obs.add_argument(
        "action",
        choices=("summarize", "validate", "diff"),
        help="render a human summary, check the file against its schema, "
        "or compare two metrics/bench documents for regressions",
    )
    obs.add_argument("paths", nargs="+", metavar="PATH")
    obs.add_argument(
        "--threshold", type=float, default=0.1,
        help="relative change flagged by obs diff (default 0.1 = 10%%)",
    )
    obs.add_argument(
        "--ignore", type=str, default="",
        help="extra regex of key paths obs diff skips (e.g. timing jitter)",
    )
    obs.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help=argparse.SUPPRESS,
    )
    obs.set_defaults(handler=_dispatch)

    # `verify` runs randomized campaigns on small arrays, so it takes its
    # own --rows/--cols defaults (8x8, not the paper-scale 32x32).
    from .verify.campaign import SUITES as VERIFY_SUITES

    verify = sub.add_parser(
        "verify",
        help="randomized invariant & golden-model verification campaign",
    )
    verify.add_argument(
        "--suite",
        type=str,
        default="all",
        choices=list(VERIFY_SUITES) + ["all"],
        help="which subsystem campaign to run",
    )
    verify.add_argument("--trials", type=int, default=25)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--rows", type=int, default=8, help="tile rows")
    verify.add_argument("--cols", type=int, default=8, help="tile columns")
    verify.add_argument(
        "--workers",
        type=int,
        default=1,
        help="experiment-engine worker processes (0 = all CPUs)",
    )
    verify.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help=argparse.SUPPRESS,
    )
    for sink in ("--trace", "--metrics"):
        verify.add_argument(
            sink,
            type=str,
            default=argparse.SUPPRESS,
            metavar="PATH",
            help=argparse.SUPPRESS,
        )
    verify.set_defaults(handler=_dispatch)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    A :class:`~repro.errors.ReproError` (bad input the library rejected)
    prints one ``repro: error: <message>`` line to stderr and exits 2,
    like an argparse usage error, instead of a traceback.
    """
    from .errors import ReproError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":     # pragma: no cover
    sys.exit(main())
