"""The benchmark's four workloads.

Each workload turns the run seed into per-op inputs and offers:

* ``run(inp)`` — one op through the public entry points (CLI cores or
  library calls), returning a plain comparable dict;
* ``traced(inp, rec)`` — the same op re-issued as the public calls the
  entry point makes, with a span around each layer; it must return a
  dict equal to ``run``'s;
* ``check(inp, out)`` — cheap invariants on every op's output;
* ``expected(inp, out)`` — equality with the committed expected output
  (pooled workloads, every op);
* ``oracle(inp, out)`` — an exact, independent recomputation (first op);
* ``work(out)`` — the op's work in natural units.

A *pooled* workload draws every op's inputs from a fixed pool of
``POOL`` entries, visited in an order the run seed shuffles.  The
outputs of every entry are committed in ``expected.json`` (written by
``expected.py``, which cross-checks them on a second engine), so each op
is compared with seeded expected values, not only with invariants.

Workloads with a result cache (``warm_passes`` > 0) are also re-issued on
inputs already seen; the warm op must return the cold op's output.

Failures are returned as lists of strings; an empty list means correct.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import time
from pathlib import Path

import numpy as np

from repro import cli
from repro.arch.emulator import Emulator, clear_route_cache
from repro.arch.system import WaferscaleSystem
from repro.clock.forwarding import simulate_clock_setup
from repro.clock.passive_cdn import passive_cdn_is_viable
from repro.clock.resiliency import monte_carlo_clock_coverage
from repro.config import SystemConfig
from repro.dft.multichain import load_time_model, row_chains
from repro.dft.probe import probe_plan
from repro.engine import ExperimentEngine, ResultCache
from repro.engine.seeding import spawn_trial_seeds
from repro.geometry.chiplet import tile_area_mm2
from repro.geometry.reticle import plan_reticles
from repro.geometry.wafer import WaferLayout
from repro.io.bonding import BondingYieldModel
from repro.io.budget import compute_io_budget, memory_io_budget
from repro.io.cell import IoCellModel
from repro.noc.connectivity import disconnected_fraction, monte_carlo_disconnection
from repro.noc.dualnetwork import NetworkId
from repro.noc.faults import FaultMap, random_fault_map
from repro.noc.simulator import NocSimulator
from repro.pdn.decap import DecapModel
from repro.pdn.ldo import LdoModel
from repro.pdn.solver import PdnSolver
from repro.substrate.drc import run_drc
from repro.substrate.fanout import plan_edge_fanout
from repro.substrate.netlist import extract_netlist
from repro.substrate.router import SubstrateRouter
from repro.workloads.bfs import DistributedBfs, reference_bfs
from repro.workloads.collectives import (
    CollectiveDriver,
    CollectiveSpec,
    check_delivery,
    compile_noc,
    run_noc_collective,
)
from repro.workloads.graphs import random_graph
from repro.workloads.traffic import TrafficPattern, generate_traffic

from spans import SpanRecorder

FULL_WAFER = SystemConfig()          # the paper's 32x32 array
POOL = 12                            # input entries of a pooled workload
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def _derive(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def op_seed(seed: int, index: int) -> int:
    """The program seed of op ``index`` (index -1 is the warm-up op)."""
    return _derive(seed, index + 1)


def pool_seed(entry: int) -> int:
    """The program seed of pool entry ``entry``; independent of the run seed."""
    return _derive(POOL, entry)


def plain(out: dict) -> dict:
    """``out`` as it reads back from JSON (string keys, lists for tuples)."""
    return json.loads(json.dumps(out))


@functools.cache
def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


class Workload:
    """Shared defaults; subclasses fill in the op."""

    name = ""
    workers = 1
    warm_passes = 0         # warm re-issues of every op, after the loop
    pooled = False          # inputs from the pool, outputs in expected.json

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.order = np.random.default_rng(seed).permutation(POOL)

    def inputs(self, index: int) -> dict:
        if not self.pooled:
            return {"index": index, "seed": op_seed(self.seed, index)}
        entry = int(self.order[index % POOL])
        return {"index": index, "seed": pool_seed(entry), "entry": entry}

    def expected(self, inp: dict, out: dict) -> list[str]:
        """Differences from the committed output of the op's pool entry."""
        if not self.pooled:
            return []
        want = load_expected()[self.name][inp["entry"]]
        if want["seed"] != inp["seed"]:
            return [f"pool entry {inp['entry']}: seed {inp['seed']} is not the "
                    f"expected.json seed {want['seed']}"]
        got = plain(out)
        return [
            f"pool entry {inp['entry']}: {key} differs from expected.json"
            for key in sorted(set(got) | set(want["output"]))
            if got.get(key) != want["output"].get(key)
        ]

    def oracle(self, inp: dict, out: dict) -> list[str]:
        return []

    def probe(self, inp: dict, out: dict, rec: SpanRecorder) -> list[str]:
        """Extra per-layer measurement of a traced op (outside op time)."""
        return []

    def extra_work(self, outs: list[dict]) -> dict[str, float]:
        """Secondary natural-unit totals printed beside ``work_per_s``."""
        return {}

    def paper_line(self, outs: list[dict]) -> str:
        return "unvalidated: the paper gives no reference for this workload"


def _expect(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def _same(failures: list[str], got, want, what: str) -> None:
    if got != want:
        failures.append(f"{what}: {got!r} != expected {want!r}")


# ---------------------------------------------------------------------------
# fault-mc: Fig. 6 and clock-resiliency Monte Carlo on the engine
# ---------------------------------------------------------------------------


class _TimedCache(ResultCache):
    """A result cache whose reads and writes are spans."""

    def __init__(self, root: Path, rec: SpanRecorder) -> None:
        super().__init__(root)
        self.rec = rec

    def get(self, key):
        with self.rec.span("engine.cache_get"):
            hit, values = super().get(key)
        self.rec.count("engine.cache_hits" if hit else "engine.cache_misses")
        return hit, values

    def put(self, key, values):
        with self.rec.span("engine.cache_put"):
            super().put(key, values)


class _TracedEngine(ExperimentEngine):
    """An experiment engine that records each run and its trial time."""

    def __init__(self, rec: SpanRecorder, **kwargs) -> None:
        super().__init__(**kwargs)
        self.rec = rec

    def run(self, fn, **kwargs):
        with self.rec.span("engine.run") as span:
            result = super().run(fn, **kwargs)
        trial_s = float(sum(result.trial_times_s))
        self.rec.count("engine.trial_s", trial_s)
        self.rec.count("engine.dispatch_s", span["dur"] - trial_s / self.workers)
        self.rec.count("engine.trials", 0 if result.from_cache else result.trials)
        return result


_FIG6_KEYS = (
    "fault_count", "mean_single_pct", "mean_dual_pct", "std_single_pct", "std_dual_pct",
)
_COVERAGE_KEYS = (
    "fault_count", "trials", "mean_coverage", "min_coverage", "mean_unreachable",
)


def _rows(stats, keys) -> list[dict]:
    """Monte Carlo stats objects as comparable dicts."""
    return [{k: getattr(s, k) for k in keys} for s in stats]


def _fig6_replay(config, seed, count: int, trials: int, rec: SpanRecorder):
    """One Fig. 6 point, trial by trial: ``(single %, dual %)`` lists.

    The engine hands trial ``i`` of fault count ``k`` the ``i``-th child of
    ``SeedSequence((seed, k))``; redrawing each map from that stream and
    measuring it with the public kernel reproduces the engine's values bit
    for bit.
    """
    draw_s = kernel_s = 0.0
    singles, duals = [], []
    for child in spawn_trial_seeds((seed, count), trials):
        t0 = time.perf_counter()
        fmap = random_fault_map(config, count, np.random.default_rng(child))
        t1 = time.perf_counter()
        pair = disconnected_fraction(fmap)
        kernel_s += time.perf_counter() - t1
        draw_s += t1 - t0
        singles.append(pair.single * 100.0)
        duals.append(pair.dual * 100.0)
    rec.add("faults.draw", draw_s, trials)
    rec.add("connectivity.kernel", kernel_s, trials)
    rec.count("connectivity.maps", trials)
    return singles, duals


class FaultMc(Workload):
    """``repro fig6`` then ``repro resiliency`` at 32x32, 2 workers, cold cache."""

    name = "fault-mc"
    workers = 2
    warm_passes = 2
    trials = 10
    fault_counts = list(range(1, 11))

    def inputs(self, index: int) -> dict:
        inp = super().inputs(index)
        inp["cache"] = self.scratch / f"cache-{index}"
        return inp

    def run(self, inp: dict) -> dict:
        cache = ResultCache(inp["cache"])
        common = dict(
            trials=self.trials,
            seed=inp["seed"],
            max_faults=self.fault_counts[-1],
            workers=self.workers,
            cache=cache,
        )
        fig6 = cli.run_fig6(FULL_WAFER, **common)
        resiliency = cli.run_resiliency(FULL_WAFER, **common)
        return {
            "fig6": [{k: row[k] for k in _FIG6_KEYS} for row in fig6["stats"]],
            "resiliency": [
                {k: row[k] for k in _COVERAGE_KEYS} for row in resiliency["stats"]
            ],
        }

    def traced(self, inp: dict, rec: SpanRecorder) -> dict:
        # Its own cold cache: the untraced op of the same inputs may have run.
        cache = _TimedCache(Path(f"{inp['cache']}-traced"), rec)
        engine = _TracedEngine(rec, workers=self.workers, cache=cache)
        with rec.span("fig6"):
            fig6 = monte_carlo_disconnection(
                FULL_WAFER, self.fault_counts, self.trials, inp["seed"], engine=engine
            )
        with rec.span("resiliency"):
            coverage = monte_carlo_clock_coverage(
                FULL_WAFER, self.fault_counts, self.trials, inp["seed"], engine=engine
            )
        return {"fig6": _rows(fig6, _FIG6_KEYS), "resiliency": _rows(coverage, _COVERAGE_KEYS)}

    def replay(self, inp: dict, rec: SpanRecorder) -> dict:
        """Every trial recomputed inline from its engine seed stream."""
        coords = list(FULL_WAFER.tile_coords())
        edge = [c for c in coords if FULL_WAFER.is_edge_tile(c)]
        fig6, coverage = [], []
        for count in self.fault_counts:
            singles, duals = _fig6_replay(FULL_WAFER, inp["seed"], count, self.trials, rec)
            fig6.append(
                {
                    "fault_count": count,
                    "mean_single_pct": float(np.mean(singles)),
                    "mean_dual_pct": float(np.mean(duals)),
                    "std_single_pct": float(np.std(singles)),
                    "std_dual_pct": float(np.std(duals)),
                }
            )
            draw_s = clock_s = 0.0
            outcomes = []
            for child in spawn_trial_seeds((inp["seed"], count), self.trials):
                t0 = time.perf_counter()
                rng = np.random.default_rng(child)
                idx = rng.choice(len(coords), size=count, replace=False)
                faulty = {coords[i] for i in idx}
                generator = next(c for c in edge if c not in faulty)
                t1 = time.perf_counter()
                result = simulate_clock_setup(
                    FULL_WAFER, generators=[generator], faulty=faulty
                )
                clock_s += time.perf_counter() - t1
                draw_s += t1 - t0
                outcomes.append((result.coverage, len(result.unclocked_tiles)))
            rec.add("faults.draw", draw_s, self.trials)
            rec.add("clock.coverage", clock_s, self.trials)
            covs = [c for c, _ in outcomes]
            coverage.append(
                {
                    "fault_count": count,
                    "trials": len(outcomes),
                    "mean_coverage": float(np.mean(covs)),
                    "min_coverage": float(np.min(covs)),
                    "mean_unreachable": float(np.mean([u for _, u in outcomes])),
                }
            )
        return {"fig6": fig6, "resiliency": coverage}

    def probe(self, inp: dict, out: dict, rec: SpanRecorder) -> list[str]:
        with rec.span("replay"):
            want = self.replay(inp, rec)
        return [] if want == out else ["inline trial replay differs from the engine run"]

    def oracle(self, inp: dict, out: dict) -> list[str]:
        rec = SpanRecorder()
        with rec.op(inp["index"]):
            return self.probe(inp, out, rec)

    def check(self, inp: dict, out: dict) -> list[str]:
        failures: list[str] = []
        fig6, coverage = out["fig6"], out["resiliency"]
        _same(failures, [r["fault_count"] for r in fig6], self.fault_counts, "fig6 counts")
        for row in fig6:
            single, dual = row["mean_single_pct"], row["mean_dual_pct"]
            _expect(failures, 0.0 <= dual <= single <= 100.0,
                    f"fig6 @{row['fault_count']}: dual {dual} not below single {single}")
            _expect(failures, single == 0.0 or dual < single,
                    f"fig6 @{row['fault_count']}: dual equals nonzero single")
        # Monotone rise: a step may fall by at most 3 standard errors.
        for lo, hi in zip(fig6, fig6[1:]):
            se = math.hypot(lo["std_single_pct"], hi["std_single_pct"]) / math.sqrt(self.trials)
            _expect(failures, hi["mean_single_pct"] >= lo["mean_single_pct"] - 3 * se,
                    f"fig6 single falls from {lo['fault_count']} to {hi['fault_count']} faults")
        _expect(failures, fig6[-1]["mean_single_pct"] > fig6[0]["mean_single_pct"],
                "fig6 single does not rise from 1 to 10 faults")
        for row in coverage:
            _same(failures, row["trials"], self.trials, f"coverage trials @{row['fault_count']}")
            _expect(failures, 0.0 <= row["min_coverage"] <= row["mean_coverage"] <= 1.0,
                    f"coverage @{row['fault_count']} outside [0, 1]")
        return failures

    def work(self, out: dict) -> float:
        return float(
            len(out["fig6"]) * self.trials + sum(r["trials"] for r in out["resiliency"])
        )

    def paper_line(self, outs: list[dict]) -> str:
        rows = [r for out in outs for r in out["fig6"] if r["fault_count"] == 5]
        single = float(np.mean([r["mean_single_pct"] for r in rows]))
        dual = float(np.mean([r["mean_dual_pct"] for r in rows]))
        verdict = "match" if single > 12.0 and dual < 2.0 else "MISMATCH"
        return (
            f"Fig. 6 @5 faults over {len(rows) * self.trials} maps: single "
            f"{single:.1f}% (paper >12%), dual {dual:.2f}% (paper <2%): {verdict}; "
            "clock coverage: unvalidated (no paper figure)"
        )


# ---------------------------------------------------------------------------
# NoC cycle stepping, shared by noc-dense and sparse-comm traced ops
# ---------------------------------------------------------------------------


def _stepper(sim, rec: SpanRecorder):
    """A ``step()`` that sorts each cycle's host time into idle or busy.

    A cycle is idle when ``sim.idle()`` holds before the step: nothing is
    queued, buffered or pending anywhere in the network.
    """
    tally = {"idle_s": 0.0, "busy_s": 0.0, "idle": 0, "busy": 0}

    def step() -> None:
        idle = sim.idle()
        t0 = time.perf_counter()
        sim.step()
        dt = time.perf_counter() - t0
        if idle:
            tally["idle_s"] += dt
            tally["idle"] += 1
        else:
            tally["busy_s"] += dt
            tally["busy"] += 1

    def flush() -> None:
        rec.add("noc.step", tally["idle_s"] + tally["busy_s"], tally["idle"] + tally["busy"])
        rec.count("noc.idle_cycles", tally["idle"])
        rec.count("noc.idle_step_s", tally["idle_s"])
        rec.count("noc.busy_cycles", tally["busy"])
        rec.count("noc.busy_step_s", tally["busy_s"])

    return step, flush


def _drain(sim, rec: SpanRecorder, **kwargs) -> None:
    """``sim.drain`` as a span; every drain cycle holds traffic (busy)."""
    before = sim.cycle
    with rec.span("noc.drain") as span:
        sim.drain(**kwargs)
    rec.count("noc.busy_cycles", sim.cycle - before)
    rec.count("noc.busy_step_s", span["dur"])


def _noc_counts(rec: SpanRecorder, report, stalls: int) -> None:
    rec.count("noc.cycles", report.cycles)
    rec.count("noc.delivered", report.delivered)
    rec.count("noc.link_stalls", stalls)


# ---------------------------------------------------------------------------
# noc-dense: uniform traffic at 10% and 30% offered load on the full wafer
# ---------------------------------------------------------------------------


_REPORT_KEYS = (
    "cycles", "injected", "delivered", "responses_delivered",
    "dropped_unreachable", "dropped_in_flight", "in_flight",
    "flit_conservation_ok", "mean_latency", "p99_latency",
)


def _noc_fields(result: dict) -> dict:
    """The ``repro noc`` result fields a traced re-run must reproduce."""
    return {k: result[k] for k in (*_REPORT_KEYS, "link_stalls", "per_network_delivered")}


def _report_fields(report, link_stalls: int) -> dict:
    """The same fields from a :class:`SimulationReport`."""
    return {
        **{k: getattr(report, k) for k in _REPORT_KEYS},
        "link_stalls": link_stalls,
        "per_network_delivered": {
            net.name: n for net, n in report.per_network_delivered.items()
        },
    }


class NocDense(Workload):
    """Two ``repro noc`` runs (vector engine) per op: 10% then 30% load."""

    name = "noc-dense"
    pooled = True
    rates = (0.1, 0.3)
    cycles = 100

    def run(self, inp: dict, engine: str = "vector") -> dict:
        return {
            str(rate): _noc_fields(
                cli.run_noc(
                    FULL_WAFER,
                    cycles=self.cycles,
                    rate=rate,
                    seed=inp["seed"] + k,
                    engine=engine,
                )
            )
            for k, rate in enumerate(self.rates)
        }

    def traced(self, inp: dict, rec: SpanRecorder) -> dict:
        out = {}
        for k, rate in enumerate(self.rates):
            with rec.span("traffic.generate"):
                traffic = generate_traffic(
                    FULL_WAFER, TrafficPattern.UNIFORM, rate, self.cycles,
                    seed=inp["seed"] + k,
                )
            with rec.span("noc.construct"):
                sim = NocSimulator(FULL_WAFER, engine="vector")
            step, flush = _stepper(sim, rec)
            with rec.span("noc.run"):
                inject_s, injected = 0.0, 0
                for cycle, packet in traffic:
                    if cycle >= self.cycles:
                        break
                    while sim.cycle < cycle:
                        step()
                    t0 = time.perf_counter()
                    sim.inject(packet, network=NetworkId.XY)
                    inject_s += time.perf_counter() - t0
                    injected += 1
                while sim.cycle < self.cycles:
                    step()
                rec.add("noc.inject", inject_s, injected)
                flush()
            _drain(sim, rec)
            with rec.span("noc.report"):
                report = sim.report()
            _noc_counts(rec, report, sim.link_stalls)
            out[str(rate)] = _report_fields(report, sim.link_stalls)
        return out

    def check(self, inp: dict, out: dict) -> list[str]:
        failures: list[str] = []
        for rate, r in out.items():
            _expect(failures, r["flit_conservation_ok"], f"{rate}: flit conservation broken")
            _expect(failures, r["injected"] > 0, f"{rate}: nothing injected")
            _same(failures, r["delivered"], r["injected"], f"{rate}: delivered")
            _same(failures, r["dropped_unreachable"] + r["in_flight"], 0,
                  f"{rate}: dropped + in flight")
            _same(failures, sum(r["per_network_delivered"].values()), r["delivered"],
                  f"{rate}: per-network delivered")
            _expect(failures, r["cycles"] >= self.cycles, f"{rate}: ran short")
            _expect(failures, 0 < r["mean_latency"] <= r["p99_latency"],
                    f"{rate}: latency order")
        return failures

    def work(self, out: dict) -> float:
        return float(sum(r["cycles"] for r in out.values()))

    def paper_line(self, outs: list[dict]) -> str:
        lat = {
            rate: float(np.mean([out[rate]["mean_latency"] for out in outs]))
            for rate in outs[0]
        }
        shown = ", ".join(f"{float(r):.0%} load {v:.1f} cycles" for r, v in lat.items())
        return f"NoC mean latency: {shown}: unvalidated (the paper reports no NoC latency)"


# ---------------------------------------------------------------------------
# sparse-comm: collectives and BFS on a faulty full wafer
# ---------------------------------------------------------------------------


class SparseComm(Workload):
    """Ring all-reduce, all-to-all (NoC + emulator) and BFS, 8 faults."""

    name = "sparse-comm"
    pooled = True
    faults = 8
    graph_nodes = 256

    def inputs(self, index: int) -> dict:
        inp = super().inputs(index)
        rng = np.random.default_rng(inp["seed"])
        cfg = FULL_WAFER
        # Row 0 holds the 32 all-to-all ranks; a fault there forces a
        # detour search for hundreds of pairs, whose host cost swings by
        # three orders of magnitude with the draw.  One fault sits in row 1
        # (the ring's second row, forcing one detoured ring hop) and seven
        # anywhere below.
        below = [(r, c) for r in range(2, cfg.rows) for c in range(cfg.cols)]
        picks = rng.choice(len(below), size=self.faults - 1, replace=False)
        faulty = {(1, int(rng.integers(cfg.cols)))} | {below[i] for i in picks}
        inp["fault_map"] = FaultMap(cfg, frozenset(faulty))
        inp["specs"] = {
            "ring": CollectiveSpec("ring-all-reduce", seed=inp["seed"], ranks=64, segments=4),
            "all-to-all": CollectiveSpec("all-to-all", seed=inp["seed"], ranks=32),
        }
        inp["graph"] = random_graph(nodes=self.graph_nodes, seed=inp["seed"])
        return inp

    @staticmethod
    def _collective_fields(coll, report, noc_checks, stats, emu_checks) -> dict:
        return {
            "transfers": coll.program.transfer_count,
            "packets": coll.packets,
            "detoured_transfers": coll.detoured_transfers,
            "cycles": report.cycles,
            "injected": report.injected,
            "delivered": report.delivered,
            "flit_conservation_ok": report.flit_conservation_ok,
            "noc_checks": noc_checks,
            "emu": dataclasses.asdict(stats),
            "emu_checks": emu_checks,
        }

    def run(self, inp: dict, engine: str = "vector") -> dict:
        # Emulator route tables are kept per fault map across calls; every
        # op starts without them, as a fresh process would.
        clear_route_cache()
        fmap = inp["fault_map"]
        system = WaferscaleSystem(FULL_WAFER, fmap)
        out = {}
        for key, spec in inp["specs"].items():
            coll = compile_noc(FULL_WAFER, fmap, spec)
            report, noc_checks = run_noc_collective(coll, engine=engine)
            driver = CollectiveDriver(system, spec)
            stats = driver.run(engine=engine)
            out[key] = self._collective_fields(coll, report, noc_checks, stats, driver.verify())
        bfs = DistributedBfs(system, inp["graph"]).run(0, engine=engine)
        out["bfs"] = {"distance": bfs.distance, "emu": dataclasses.asdict(bfs.stats)}
        return out

    def traced(self, inp: dict, rec: SpanRecorder) -> dict:
        clear_route_cache()
        fmap = inp["fault_map"]
        with rec.span("emu.system"):
            system = WaferscaleSystem(FULL_WAFER, fmap)
        out = {}
        for key, spec in inp["specs"].items():
            with rec.span("collectives.compile"):
                coll = compile_noc(FULL_WAFER, fmap, spec)
            with rec.span("noc.construct"):
                sim = NocSimulator(FULL_WAFER, fmap, engine="vector")
            step, flush = _stepper(sim, rec)
            with rec.span("noc.run"):
                schedule = coll.packet_schedule()
                inject_s, position = 0.0, 0
                for cycle in range(coll.last_cycle + 1):
                    t0 = time.perf_counter()
                    while position < len(schedule) and schedule[position][0] == cycle:
                        _, packet, network = schedule[position]
                        sim.inject(packet, network)
                        position += 1
                    inject_s += time.perf_counter() - t0
                    step()
                rec.add("noc.inject", inject_s, position)
                flush()
            _drain(sim, rec, max_cycles=200_000)
            with rec.span("collectives.oracle"):
                noc_checks = check_delivery(coll, sim.delivered_packets, engine="vector")
            with rec.span("noc.report"):
                report = sim.report()
            _noc_counts(rec, report, sim.link_stalls)
            rec.count("collectives.packets", coll.packets)
            rec.count("collectives.detoured_transfers", coll.detoured_transfers)
            with rec.span("emu.system"):
                driver = CollectiveDriver(system, spec)
            with rec.span("emu.run"):
                driver.reset()
                stats = Emulator(system, engine="vector").run(driver.compute)
            with rec.span("collectives.oracle"):
                emu_checks = driver.verify()
            self._emu_counts(rec, stats)
            out[key] = self._collective_fields(coll, report, noc_checks, stats, emu_checks)
        with rec.span("emu.system"):
            bfs_run = DistributedBfs(system, inp["graph"])
        with rec.span("emu.run"):
            bfs = bfs_run.run(0, engine="vector")
        self._emu_counts(rec, bfs.stats)
        out["bfs"] = {"distance": bfs.distance, "emu": dataclasses.asdict(bfs.stats)}
        return out

    @staticmethod
    def _emu_counts(rec: SpanRecorder, stats) -> None:
        rec.count("emu.supersteps", stats.supersteps)
        rec.count("emu.messages", stats.messages_sent)
        rec.count("emu.detoured_messages", stats.detoured_messages)

    def check(self, inp: dict, out: dict) -> list[str]:
        failures: list[str] = []
        for key in inp["specs"]:
            r = out[key]
            _expect(failures, r["flit_conservation_ok"], f"{key}: flit conservation broken")
            _same(failures, r["delivered"], r["packets"], f"{key}: delivered packets")
            _same(failures, r["packets"], r["transfers"] + r["detoured_transfers"],
                  f"{key}: packets vs transfers + detour legs")
            _expect(failures, r["noc_checks"] > 0, f"{key}: no NoC oracle checks")
            _expect(failures, r["emu_checks"] > 0, f"{key}: no emulator oracle checks")
            _same(failures, r["emu"]["messages_sent"], r["transfers"], f"{key}: emulated messages")
        want = reference_bfs(inp["graph"], 0)
        _same(failures, out["bfs"]["distance"], want, "bfs distances vs networkx")
        return failures

    def work(self, out: dict) -> float:
        return float(sum(out[key]["cycles"] for key in ("ring", "all-to-all")))

    def extra_work(self, outs: list[dict]) -> dict[str, float]:
        return {
            "messages": float(
                sum(out[k]["emu"]["messages_sent"] for out in outs for k in ("ring", "all-to-all", "bfs"))
            )
        }


# ---------------------------------------------------------------------------
# design-flow: the seven-stage flow on a sub-wafer array
# ---------------------------------------------------------------------------


def _flow_fields(stages: list[dict]) -> dict:
    """The stage verdicts and the metrics a traced re-run reproduces."""
    by_name = {s["name"]: s for s in stages}
    keep = {
        "power": ("min_voltage", "max_voltage", "total_current_a"),
        "clock": ("forwarding_coverage", "max_hops"),
        "network": ("single_net_disconnected_pct", "dual_net_disconnected_pct"),
        "dft": ("chains", "full_load_minutes"),
        "substrate": ("nets", "routed", "drc_clean", "stitch_wires"),
    }
    return {
        "ok": {name: stage["ok"] for name, stage in by_name.items()},
        "metrics": {
            name: {k: by_name[name]["metrics"][k] for k in keys}
            for name, keys in keep.items()
        },
    }


class DesignFlow(Workload):
    """``repro flow`` on a 5x5 array with a seed-drawn tile power."""

    name = "design-flow"
    pooled = True
    size = 5
    trials = 10            # ``repro flow --trials`` default
    network_seed = 7       # fixed inside run_design_flow

    def inputs(self, index: int) -> dict:
        inp = super().inputs(index)
        rng = np.random.default_rng(inp["seed"])
        base = SystemConfig()
        inp["config"] = base.variant(
            rows=self.size,
            cols=self.size,
            tile_peak_power_w=base.tile_peak_power_w * float(rng.uniform(0.85, 1.0)),
        )
        return inp

    def run(self, inp: dict) -> dict:
        return _flow_fields(cli.run_flow(inp["config"], trials=self.trials)["stages"])

    def traced(self, inp: dict, rec: SpanRecorder) -> dict:
        cfg = inp["config"]
        stages: list[dict] = []

        def stage(name: str, ok: bool, **metrics) -> None:
            stages.append({"name": name, "ok": bool(ok), "metrics": metrics})

        with rec.span("flow.geometry"):
            WaferLayout(cfg)
            reticles = plan_reticles(cfg)
        stage("geometry", True)
        with rec.span("flow.power"):
            with rec.span("pdn.solve"):
                solution = PdnSolver(cfg).solve()
            ldo = LdoModel()
            regulation_ok = all(
                ldo.regulation_ok(solution.voltage_at(c)) for c in cfg.tile_coords()
            )
            decap_ok = DecapModel(tile_area_mm2(cfg)).meets_band()
        rec.count("pdn.iterations", solution.iterations)
        stage("power", regulation_ok and decap_ok, min_voltage=solution.min_voltage,
              max_voltage=solution.max_voltage, total_current_a=solution.total_current_a)
        with rec.span("flow.clock"):
            passive_cdn_is_viable(cfg)
            forwarding = simulate_clock_setup(cfg)
        stage("clock", forwarding.coverage == 1.0, forwarding_coverage=forwarding.coverage,
              max_hops=forwarding.max_hops)
        with rec.span("flow.io"):
            bonding = BondingYieldModel(
                chiplet_count=cfg.chiplets,
                io_count=cfg.ios_per_compute_chiplet,
                pillar_yield=cfg.pillar_bond_yield,
                pillars_per_pad=cfg.pillars_per_pad,
            )
            io_ok = (
                compute_io_budget(cfg).fits_perimeter(cfg.io_pad_pitch_um)
                and memory_io_budget(cfg).fits_perimeter(cfg.io_pad_pitch_um)
                and IoCellModel().fits_under_pads(1, cfg.io_pad_pitch_um)
                and bonding.expected_faulty < 5.0
            )
        stage("io", io_ok)
        with rec.span("flow.network"):
            singles, duals = _fig6_replay(cfg, self.network_seed, 5, self.trials, rec)
        single, dual = float(np.mean(singles)), float(np.mean(duals))
        stage("network", dual < single, single_net_disconnected_pct=single,
              dual_net_disconnected_pct=dual)
        with rec.span("flow.dft"):
            probe_plan(cfg.ios_per_compute_chiplet)
            plan = row_chains(cfg)
            load = load_time_model(plan)
        stage("dft", plan.tck_hz() >= 1e6, chains=plan.chain_count,
              full_load_minutes=load.minutes)
        with rec.span("flow.substrate"):
            with rec.span("substrate.netlist"):
                router = SubstrateRouter(cfg, reticles=reticles)
                nets = extract_netlist(cfg)
            with rec.span("substrate.route"):
                routing = router.route(nets)
            with rec.span("substrate.drc"):
                drc = run_drc(routing)
            fanout_ok = plan_edge_fanout(cfg).density_ok()
        rec.count("substrate.nets", len(nets))
        rec.count("substrate.wires", len(routing.wires))
        rec.count("substrate.unrouted", len(routing.unrouted))
        stage("substrate", routing.success and drc.clean and fanout_ok, nets=len(nets),
              routed=routing.routed_count, drc_clean=drc.clean,
              stitch_wires=routing.stitch_wire_count())
        return _flow_fields(stages)

    def check(self, inp: dict, out: dict) -> list[str]:
        failures: list[str] = []
        for name, ok in out["ok"].items():
            _expect(failures, ok, f"flow stage {name} failed")
        sub = out["metrics"]["substrate"]
        _same(failures, sub["routed"], sub["nets"], "substrate routed nets")
        _expect(failures, sub["drc_clean"], "substrate DRC not clean")
        _same(failures, len(out["ok"]), 7, "flow stage count")
        return failures

    def work(self, out: dict) -> float:
        return float(out["metrics"]["substrate"]["nets"])

    def paper_line(self, outs: list[dict]) -> str:
        cfg = self.inputs(0)["config"]
        density = plan_edge_fanout(cfg).stack.edge_wire_density_per_mm()
        verdict = "match" if abs(density - 400.0) < 1.0 else "MISMATCH"
        return f"Sec. VIII edge density {density:.0f} wires/mm (paper 400): {verdict}"


WORKLOADS = {w.name: w for w in (FaultMc, NocDense, SparseComm, DesignFlow)}
