"""Seeded randomized verification campaigns (the ``repro verify`` CLI).

Each suite draws randomized trials — configurations, fault maps,
traffic, power maps — and runs a fast engine, its reference engine and
the corresponding :mod:`.golden` oracle side by side with
:mod:`.invariants` checkers attached, so one trial fails on any of:

* a structured :class:`~repro.verify.invariants.InvariantViolation`
  raised mid-run by an attached checker;
* a fast-vs-reference report mismatch (bit-identical fields required);
* an engine-vs-oracle disagreement.

Trials execute on the :class:`~repro.engine.core.ExperimentEngine` with
its per-trial ``verify=`` hook validating every trial value (including
cache-served ones), so the campaign also exercises the engine's verify
mode end to end.  Randomness comes from the engine's deterministic
per-trial seed streams — the verdict is a pure function of
``(suite, trials, seed, rows, cols)``.

Run it as ``repro verify --suite all --trials 25 --seed 0 --json``; the
returned verdict is JSON-encodable.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from ..arch.emulator import ENGINES as EMULATOR_ENGINES, Emulator, clear_route_cache
from ..arch.system import WaferscaleSystem
from ..config import SystemConfig
from ..dft.multichain import row_chains, single_chain
from ..dft.unrolling import ChainTestSession, TileUnderTest, locate_faulty_tiles
from ..engine.core import ExperimentEngine, TrialContext
from ..errors import NetworkError, ReproError
from ..noc.dualnetwork import NetworkId
from ..noc.faults import random_fault_map
from ..noc.remap import best_logical_grid, logical_system_config
from ..noc.simulator import NocSimulator
from ..pdn.solver import PdnSolver
from ..workloads.bfs import DistributedBfs
from ..workloads.collectives import (
    PATTERNS as COLLECTIVE_PATTERNS,
    PLACEMENTS,
    CollectiveDriver,
    CollectiveSpec,
    compile_noc,
    run_noc_collective,
)
from ..workloads.graphs import random_graph
from ..workloads.pagerank import DistributedPageRank
from ..workloads.sssp import DistributedSssp
from ..workloads.stencil import DistributedStencil
from ..workloads.traffic import TrafficPattern, generate_traffic
from ..workloads.waves import FrontierWave
from .golden import (
    GoldenNocModel,
    golden_bfs,
    golden_collective_finals,
    golden_pdn_solve,
    golden_sssp,
)
from .invariants import (
    ChainIntegrityChecker,
    DroopBoundChecker,
    InvariantViolation,
    KclResidualChecker,
    RouteCoherenceChecker,
    full_noc_checkers,
)

#: Campaign suites, in the order ``--suite all`` runs them.  New suites
#: append at the end: a suite's seed stream is derived from its index.
SUITES = ("noc", "pdn", "emu", "dft", "emu-vector", "collective")

#: Traffic patterns the NoC suite cycles through (HOTSPOT saturates tiny
#: meshes too fast to stay comparable at fixed cycle counts).
_NOC_PATTERNS = (
    TrafficPattern.UNIFORM,
    TrafficPattern.TRANSPOSE,
    TrafficPattern.NEIGHBOR,
    TrafficPattern.BIT_REVERSAL,
)


def _campaign_fault_map(cfg: SystemConfig, rng: np.random.Generator, max_faults: int):
    """A random fault map leaving at least one healthy tile."""
    limit = min(max_faults, cfg.tiles - 1)
    return random_fault_map(cfg, int(rng.integers(0, limit + 1)), rng=rng)


def _drive(sim, schedule, run_cycles: int) -> None:
    """Feed an injection schedule into any NoC model and run it.

    Works for both :class:`~repro.noc.simulator.NocSimulator` engines
    and :class:`~repro.verify.golden.GoldenNocModel` — they share the
    ``inject``/``step`` protocol.  Packets alternate networks by
    schedule position so both get traffic deterministically.
    """
    position = 0
    total = len(schedule)
    for cycle in range(run_cycles):
        while position < total and schedule[position][0] == cycle:
            packet = schedule[position][1]
            net = NetworkId.XY if position % 2 == 0 else NetworkId.YX
            sim.inject(packet, net)
            position += 1
        sim.step()


def _compare_reports(engine_report, golden_report, context: str) -> None:
    """Field-for-field comparison of an engine report against the oracle."""
    fields = (
        "cycles",
        "injected",
        "delivered",
        "responses_delivered",
        "dropped_unreachable",
        "dropped_in_flight",
        "in_flight",
        "latencies",
        "per_network_delivered",
    )
    for name in fields:
        engine_value = getattr(engine_report, name)
        golden_value = getattr(golden_report, name)
        if engine_value != golden_value:
            raise InvariantViolation(
                "noc",
                "golden_differential",
                f"engine disagrees with the golden model on {name}",
                {
                    "context": context,
                    "field": name,
                    "engine": engine_value,
                    "golden": golden_value,
                },
            )


# ---------------------------------------------------------------------------
# suite trial functions (module-level: picklable for the engine)
# ---------------------------------------------------------------------------


def _noc_trial(ctx: TrialContext) -> dict[str, Any]:
    """Reference vs vector vs golden mini-NoC on one randomized scenario."""
    rng = ctx.rng
    rows = ctx.params["rows"]
    cols = ctx.params["cols"]
    cfg = SystemConfig(rows=rows, cols=cols)
    fmap = _campaign_fault_map(cfg, rng, max_faults=3)
    pattern = _NOC_PATTERNS[ctx.index % len(_NOC_PATTERNS)]
    rate = 0.004 + float(rng.random()) * 0.02
    inject_cycles = int(rng.integers(30, 80))
    traffic_seed = int(rng.integers(0, 2**31))
    # Fixed total length (injection window + settling tail): unbounded
    # drains can diverge on saturated maps, fixed windows cannot.
    run_cycles = inject_cycles + 200

    checkers = {
        "reference": full_noc_checkers(),
        "vector": full_noc_checkers(),
    }
    reports = {}
    for engine in ("reference", "vector"):
        sim = NocSimulator(
            cfg, fmap, engine=engine, checkers=checkers[engine]
        )
        schedule = generate_traffic(
            cfg, pattern, rate, inject_cycles, seed=traffic_seed
        )
        _drive(sim, schedule, run_cycles)
        reports[engine] = sim.report()

    golden = GoldenNocModel(cfg, fmap)
    schedule = generate_traffic(cfg, pattern, rate, inject_cycles, seed=traffic_seed)
    _drive(golden, schedule, run_cycles)

    if reports["reference"] != reports["vector"]:
        raise InvariantViolation(
            "noc",
            "engine_differential",
            "reference and vector engines produced different reports",
            {
                "pattern": pattern.name,
                "rate": rate,
                "reference": reports["reference"],
                "vector": reports["vector"],
            },
        )
    _compare_reports(
        reports["reference"], golden.report(), context=f"pattern={pattern.name}"
    )
    checks = sum(c.checks for cs in checkers.values() for c in cs)
    return {
        "checks": checks,
        "injected": reports["reference"].injected,
        "delivered": reports["reference"].delivered,
        "conserved": reports["reference"].flit_conservation_ok,
    }


def _pdn_trial(ctx: TrialContext) -> dict[str, Any]:
    """Cached-LU vs fresh-spsolve vs dense-numpy PDN on one power map."""
    rng = ctx.rng
    rows = int(rng.integers(4, 9))
    cols = int(rng.integers(4, 9))
    cfg = SystemConfig(rows=rows, cols=cols)
    power = rng.random((rows, cols)) * cfg.tile_peak_power_w * 1.5
    load_model = "ldo" if ctx.index % 2 == 0 else "constant_power"

    fast_checkers = [KclResidualChecker(), DroopBoundChecker()]
    ref_checkers = [KclResidualChecker(), DroopBoundChecker()]
    fast = PdnSolver(cfg, engine="fast", checkers=fast_checkers)
    ref = PdnSolver(cfg, engine="reference", checkers=ref_checkers)

    fast_solution = fast.solve(power, load_model=load_model)
    ref_solution = ref.solve(power, load_model=load_model)
    golden_v, golden_i, golden_iters = golden_pdn_solve(
        cfg, power, load_model=load_model
    )

    for label, other_v, other_i in (
        ("reference", ref_solution.voltages, ref_solution.currents),
        ("golden", golden_v, golden_i),
    ):
        if not np.allclose(
            fast_solution.voltages, other_v, rtol=0.0, atol=1e-7
        ) or not np.allclose(fast_solution.currents, other_i, rtol=0.0, atol=1e-6):
            raise InvariantViolation(
                "pdn",
                "solver_differential",
                f"factorized solver disagrees with the {label} solve",
                {
                    "load_model": load_model,
                    "rows": rows,
                    "cols": cols,
                    "max_dv": float(
                        np.abs(fast_solution.voltages - other_v).max()
                    ),
                },
            )
    if fast_solution.iterations != golden_iters:
        raise InvariantViolation(
            "pdn",
            "solver_differential",
            "fixed-point iteration counts diverged from the oracle",
            {
                "load_model": load_model,
                "solver": fast_solution.iterations,
                "golden": golden_iters,
            },
        )

    checks = sum(c.checks for c in fast_checkers + ref_checkers)
    return {
        "checks": checks,
        "min_voltage": fast_solution.min_voltage,
        "iterations": fast_solution.iterations,
    }


def _emu_trial(ctx: TrialContext) -> dict[str, Any]:
    """BFS/SSSP against the oracles, PageRank/stencil reference-vs-vector."""
    rng = ctx.rng
    rows = ctx.params["rows"]
    cols = ctx.params["cols"]
    cfg = SystemConfig(rows=rows, cols=cols)
    fmap = _campaign_fault_map(cfg, rng, max_faults=3)
    clear_route_cache()
    system = WaferscaleSystem(cfg, fmap)
    checks = 0

    # Phase 1: whole-workload differential — distributed BFS/SSSP on the
    # scalar and vector engines against the pure-python oracles.
    graph = random_graph(
        nodes=int(rng.integers(24, 49)),
        seed=int(rng.integers(0, 2**31)),
        weighted=True,
    )
    source = int(rng.integers(graph.number_of_nodes()))

    bfs = DistributedBfs(system, graph)
    reference = bfs.run(source, engine="reference").distance
    vector = bfs.run(source, engine="vector").distance
    oracle = golden_bfs(graph, source)
    checks += 1
    if reference != vector or reference != oracle:
        raise InvariantViolation(
            "emu",
            "bfs_differential",
            "distributed BFS distances diverged",
            {"source": source, "reference": len(reference), "oracle": len(oracle)},
        )

    sssp = DistributedSssp(system, graph)
    sssp_distance = sssp.run(source).distance
    sssp_oracle = golden_sssp(graph, source)
    checks += 1
    if set(sssp_distance) != set(sssp_oracle) or any(
        abs(sssp_distance[v] - sssp_oracle[v]) > 1e-9 for v in sssp_oracle
    ):
        raise InvariantViolation(
            "emu",
            "sssp_differential",
            "distributed SSSP distances diverged from the oracle",
            {"source": source},
        )

    # Phase 2: PageRank fuzz, reference vs vector on the trial's faulty
    # system — ranks and every EmulationStats field must be
    # bit-identical.
    pagerank = DistributedPageRank(system, graph)
    pr = {
        engine: pagerank.run(iterations=4, engine=engine)
        for engine in ("reference", "vector")
    }
    checks += 1
    if (
        pr["reference"].ranks != pr["vector"].ranks
        or pr["reference"].stats != pr["vector"].stats
    ):
        raise InvariantViolation(
            "emu",
            "pagerank_differential",
            "PageRank diverged between the reference and vector engines",
            {"source": source, "engines": ["reference", "vector"]},
        )

    # Phase 3: stencil fuzz, reference vs vector (stencil blocks pin to
    # physical tiles, so it runs on a fault-free system).
    clean = WaferscaleSystem(cfg)
    field = rng.random((rows * 2, cols * 2))
    sweeps = int(rng.integers(1, 4))
    st = {
        engine: DistributedStencil(clean, field).run(sweeps, engine=engine)
        for engine in ("reference", "vector")
    }
    checks += 1
    if (
        not np.array_equal(st["reference"].field, st["vector"].field)
        or st["reference"].stats != st["vector"].stats
    ):
        raise InvariantViolation(
            "emu",
            "stencil_differential",
            "stencil diverged between the reference and vector engines",
            {"sweeps": sweeps, "engines": ["reference", "vector"]},
        )
    return {
        "checks": checks,
        "bfs_reached": len(reference),
        "pagerank_iterations": pr["reference"].iterations,
    }


def _wave_outcome(wave: FrontierWave, engine: str):
    """A wave run's stats, or the :class:`NetworkError` message it raised.

    Random destinations can be unreachable on a disconnecting fault map;
    engines must then agree on the *error* too, so the outcome keeps the
    message text as the comparable value.
    """
    try:
        return wave.run(engine=engine)
    except NetworkError as err:
        return ("NetworkError", str(err))


def _emu_vector_trial(ctx: TrialContext) -> dict[str, Any]:
    """Vector-emulator differential: per-field stats and error parity.

    Three phases per randomized scenario:

    1. synthetic flows through a checked ``engine="vector"`` emulator
       (every route-table lookup re-derived by RouteCoherenceChecker);
    2. BFS and SSSP on the reference and vector engines — distances
       *and* every :class:`~repro.arch.emulator.EmulationStats` field
       bit-identical;
    3. a :class:`FrontierWave` on both engines, where unreachable
       destinations must raise the identical :class:`NetworkError`.
    """
    rng = ctx.rng
    rows = ctx.params["rows"]
    cols = ctx.params["cols"]
    cfg = SystemConfig(rows=rows, cols=cols)
    fmap = _campaign_fault_map(cfg, rng, max_faults=6)
    clear_route_cache()
    system = WaferscaleSystem(cfg, fmap)

    # Phase 1: the vector engine under an attached invariant checker.
    checker = RouteCoherenceChecker(sample=1)
    emulator = Emulator(system, engine="vector", checkers=[checker])
    healthy = system.healthy_coords()
    for _ in range(2):
        for _ in range(min(24, len(healthy) * 2)):
            src = healthy[int(rng.integers(len(healthy)))]
            dst = healthy[int(rng.integers(len(healthy)))]
            if src != dst:
                emulator.send(src, dst, payload=None)
        emulator.superstep(lambda tile, inbox, em: 0)

    # Phase 2: BFS + SSSP stats differential, reference vs vector.
    graph = random_graph(
        nodes=int(rng.integers(24, 49)),
        seed=int(rng.integers(0, 2**31)),
        weighted=True,
    )
    source = int(rng.integers(graph.number_of_nodes()))
    bfs = DistributedBfs(system, graph)
    sssp = DistributedSssp(system, graph)
    bfs_runs = {e: bfs.run(source, engine=e) for e in ("reference", "vector")}
    sssp_runs = {e: sssp.run(source, engine=e) for e in ("reference", "vector")}
    if (
        bfs_runs["reference"].distance != bfs_runs["vector"].distance
        or bfs_runs["reference"].stats != bfs_runs["vector"].stats
    ):
        raise InvariantViolation(
            "emu-vector",
            "bfs_stats_differential",
            "BFS stats diverged between the reference and vector engines",
            {
                "source": source,
                "reference": bfs_runs["reference"].stats,
                "vector": bfs_runs["vector"].stats,
            },
        )
    if (
        sssp_runs["reference"].distance != sssp_runs["vector"].distance
        or sssp_runs["reference"].stats != sssp_runs["vector"].stats
    ):
        raise InvariantViolation(
            "emu-vector",
            "sssp_stats_differential",
            "SSSP stats diverged between the reference and vector engines",
            {"source": source},
        )

    # Phase 3: send_batch-heavy wave traffic, including error parity on
    # maps that disconnect a drawn destination.
    wave_seed = int(rng.integers(0, 2**31))
    wave = FrontierWave(system, width=4, fanout=3, ttl=3, seed=wave_seed)
    outcomes = {e: _wave_outcome(wave, e) for e in ("reference", "vector")}
    if outcomes["reference"] != outcomes["vector"]:
        raise InvariantViolation(
            "emu-vector",
            "wave_differential",
            "wave outcome diverged between the reference and vector engines",
            {
                "wave_seed": wave_seed,
                "reference": outcomes["reference"],
                "vector": outcomes["vector"],
            },
        )

    return {
        "checks": checker.checks,
        "bfs_reached": len(bfs_runs["reference"].distance),
        "detoured": bfs_runs["reference"].stats.detoured_messages,
    }


def _dft_trial(ctx: TrialContext) -> dict[str, Any]:
    """Chain-plan permutation integrity and unrolling-session legality."""
    rng = ctx.rng
    checker = ChainIntegrityChecker()

    rows = int(rng.integers(4, 13))
    cols = int(rng.integers(4, 13))
    cfg = SystemConfig(rows=rows, cols=cols)
    checker.check_plan(row_chains(cfg))
    checker.check_plan(single_chain(cfg))

    # Remapped logical configs keep the permutation property too.
    base = SystemConfig(rows=8, cols=8)
    fmap = _campaign_fault_map(base, rng, max_faults=10)
    grid = best_logical_grid(fmap)
    logical_cfg = logical_system_config(grid, base)
    checker.check_plan(row_chains(logical_cfg))

    # Random health vectors: the recorded unroll must be a strict prefix
    # walk that stops at the first failure and matches ground truth.
    chain_length = int(rng.integers(1, 33))
    health = [bool(rng.random() < 0.9) for _ in range(chain_length)]
    session = ChainTestSession(
        tiles=[TileUnderTest(index=i, healthy=h) for i, h in enumerate(health)]
    )
    found = session.unroll()
    checker.check_unroll(session.steps, health)
    if found != locate_faulty_tiles(health):
        raise InvariantViolation(
            "dft",
            "unroll_differential",
            "unroll verdict differs from the convenience-wrapper reference",
            {"found": found},
        )
    return {"checks": checker.checks, "chain_length": chain_length}


#: Geometries the collective suite cycles through (the configured
#: ``rows × cols`` plus three fixed shapes, incl. non-square ones).
_COLLECTIVE_GEOMETRIES = ((6, 6), (5, 9), (4, 7))


def _collective_golden_check(coll) -> int:
    """Differential: program finals vs the naive golden collective model."""
    program = coll.program
    expected = golden_collective_finals(
        program.name,
        program.ranks,
        seed=program.params.get("seed", 0),
        segments=program.params.get("segments", 1),
        root=program.params.get("root", 0),
        stages=program.params.get("stages", 2),
        microbatches=program.params.get("microbatches", 4),
    )
    checks = 0
    for rank, slots in expected.items():
        for slot_id, want in slots.items():
            checks += 1
            got = coll.trace.finals[rank].get(slot_id, 0)
            if got != want:
                raise InvariantViolation(
                    "collective",
                    "golden_differential",
                    "collective finals disagree with the golden model",
                    {
                        "pattern": program.name,
                        "rank": rank,
                        "tile": coll.rank_coords[rank],
                        "slot": slot_id,
                        "golden": want,
                        "program": got,
                    },
                )
    return checks


def _collective_compile(cfg, fmap, spec, rng):
    """Compile a collective, falling back to a fault-free map if the
    drawn one disconnects a participant pair beyond detour repair."""
    try:
        return compile_noc(cfg, fmap, spec), fmap
    except NetworkError:
        clean = random_fault_map(cfg, 0, rng)
        return compile_noc(cfg, clean, spec), clean


def _collective_trial(ctx: TrialContext) -> dict[str, Any]:
    """Cross-engine + golden conformance for one randomized collective.

    One trial covers, for a drawn (pattern, geometry, fault map,
    placement, spec) point:

    1. the compiled packet schedule through the reference and vector
       NoC engines with full invariant checkers attached, every run's
       delivered packets passing the delivery/completion oracle, and
       both reports bit-identical;
    2. the program's finals against the naive golden collective model;
    3. the live :class:`CollectiveDriver` under every emulator engine
       name — per-tile finals verified in-simulation and
       :class:`~repro.arch.emulator.EmulationStats` bit-identical.
    """
    rng = ctx.rng
    geometries = (
        (ctx.params["rows"], ctx.params["cols"]),
    ) + _COLLECTIVE_GEOMETRIES
    rows, cols = geometries[(ctx.index // len(COLLECTIVE_PATTERNS)) % len(geometries)]
    cfg = SystemConfig(rows=rows, cols=cols)
    pattern = COLLECTIVE_PATTERNS[ctx.index % len(COLLECTIVE_PATTERNS)]
    fmap = _campaign_fault_map(cfg, rng, max_faults=3)
    spec = CollectiveSpec(
        pattern=pattern,
        seed=int(rng.integers(0, 2**31)),
        ranks=int(rng.integers(2, min(17, fmap.healthy_count + 1))),
        segments=int(rng.integers(1, 5)),
        root=int(rng.integers(0, 8)),
        stages=int(rng.integers(1, 5)),
        microbatches=int(rng.integers(1, 5)),
        placement=PLACEMENTS[ctx.index % len(PLACEMENTS)],
    )
    coll, fmap = _collective_compile(cfg, fmap, spec, rng)

    # Phase 1: both NoC engines under checkers, oracle on every run.
    checks = 0
    reports = {}
    for engine in ("reference", "vector"):
        engine_checkers = full_noc_checkers()
        report, oracle_checks = run_noc_collective(
            coll, engine=engine, checkers=engine_checkers
        )
        reports[engine] = report
        checks += oracle_checks + sum(c.checks for c in engine_checkers)
    if reports["reference"] != reports["vector"]:
        raise InvariantViolation(
            "collective",
            "engine_differential",
            "reference and vector engines produced different reports",
            {
                "pattern": pattern,
                "placement": spec.placement,
                "reference": reports["reference"],
                "vector": reports["vector"],
            },
        )

    # Phase 2: program finals vs the naive golden model.
    checks += _collective_golden_check(coll)

    # Phase 3: the live emulator driver under every accepted engine name
    # ("fast" runs the same scalar oracle as "reference"), each against
    # the reference run.
    clear_route_cache()
    system = WaferscaleSystem(cfg, fmap)
    driver = CollectiveDriver(system, spec)
    stats = {}
    for engine in EMULATOR_ENGINES:
        stats[engine] = driver.run(engine=engine)
        checks += driver.verify()
    for other in ("fast", "vector"):
        if stats["reference"] != stats[other]:
            raise InvariantViolation(
                "collective",
                "emu_stats_differential",
                f"driver stats diverged between the reference and {other} engines",
                {
                    "pattern": pattern,
                    "reference": stats["reference"],
                    other: stats[other],
                },
            )

    return {
        "checks": checks,
        "pattern": pattern,
        "geometry": [rows, cols],
        "faults": fmap.fault_count,
        "ranks": coll.program.ranks,
        "packets": coll.packets,
        "detoured_transfers": coll.detoured_transfers,
    }


_TRIALS = {
    "noc": _noc_trial,
    "pdn": _pdn_trial,
    "emu": _emu_trial,
    "dft": _dft_trial,
    "emu-vector": _emu_vector_trial,
    "collective": _collective_trial,
}


def _verify_trial_value(index: int, value: Any) -> None:
    """Engine verify hook: every trial must report real checking work."""
    if not isinstance(value, dict) or value.get("checks", 0) <= 0:
        raise InvariantViolation(
            "campaign",
            "trial_value",
            "trial reported no invariant checks",
            {"trial": index, "value": value},
        )


# ---------------------------------------------------------------------------
# campaign driver
# ---------------------------------------------------------------------------


def run_verify(
    suite: str = "all",
    trials: int = 25,
    seed: int = 0,
    rows: int = 8,
    cols: int = 8,
    workers: int = 1,
) -> dict[str, Any]:
    """Run one or all verification suites; returns a JSON-able verdict.

    The verdict's ``passed`` flag is True only when every selected suite
    completed all its trials without an invariant violation or a
    differential mismatch.  Per-suite entries carry trial counts, total
    invariant checks performed, and the first failure (message plus
    structured context) when one occurred.
    """
    if suite != "all" and suite not in SUITES:
        raise ReproError(
            f"unknown suite {suite!r}; pick one of {SUITES + ('all',)}"
        )
    if trials < 1:
        raise ReproError("campaign needs at least one trial")
    names = SUITES if suite == "all" else (suite,)

    suite_results: dict[str, Any] = {}
    # One engine, so one worker pool, for every suite.  A trial that
    # raises in a worker discards the pool; the next suite starts afresh.
    with ExperimentEngine(workers=workers) as engine:
        for name in names:
            start = time.perf_counter()
            entry: dict[str, Any] = {"trials": trials}
            try:
                result = engine.run(
                    _TRIALS[name],
                    experiment=f"verify.{name}",
                    trials=trials,
                    seed=(seed, SUITES.index(name)),
                    params={"rows": rows, "cols": cols},
                    verify=_verify_trial_value,
                )
            except InvariantViolation as violation:
                entry["passed"] = False
                entry["failure"] = violation.to_dict()
            except ReproError as exc:
                entry["passed"] = False
                entry["failure"] = {"message": str(exc)}
            else:
                entry["passed"] = True
                entry["checks"] = int(sum(v["checks"] for v in result.values))
            entry["elapsed_s"] = round(time.perf_counter() - start, 3)
            suite_results[name] = entry

    return {
        "suite": suite,
        "trials": trials,
        "seed": seed,
        "rows": rows,
        "cols": cols,
        "passed": all(entry["passed"] for entry in suite_results.values()),
        "suites": suite_results,
    }
