"""Differential tests for the struct-of-arrays vector emulator.

The vector engine replaces the per-message routing loop with one
``np.unique``-keyed flow kernel per superstep; these tests prove every
:class:`~repro.arch.emulator.EmulationStats` field (and every workload
result) bit-identical to the scalar reference engine across
workloads, fault maps and seeds — including the error path, where an
unreachable destination must raise the same :class:`NetworkError`
message.
"""

import re

import numpy as np
import pytest

from repro.arch.emulator import ENGINES, Emulator, clear_route_cache
from repro.arch.system import WaferscaleSystem
from repro.arch.vectoremu import VectorEmulator
from repro.config import SystemConfig
from repro.errors import EmulatorError, NetworkError, ReproError
from repro.noc.faults import FaultMap, random_fault_map
from repro.verify.invariants import RouteCoherenceChecker
from repro.workloads.bfs import DistributedBfs, reference_bfs
from repro.workloads.collectives import (
    PATTERNS,
    PLACEMENTS,
    CollectiveDriver,
    CollectiveSpec,
)
from repro.workloads.graphs import random_graph
from repro.workloads.pagerank import DistributedPageRank
from repro.workloads.sssp import DistributedSssp
from repro.workloads.waves import FrontierWave

STAT_FIELDS = (
    "supersteps",
    "messages_sent",
    "message_hops",
    "detoured_messages",
    "local_compute_cycles",
    "network_cycles",
    "per_step_messages",
)


def _system(rows=8, cols=8, faults=0, seed=0):
    cfg = SystemConfig(rows=rows, cols=cols)
    fmap = (
        random_fault_map(cfg, faults, rng=np.random.default_rng(seed))
        if faults
        else None
    )
    return WaferscaleSystem(cfg, fmap)


def _assert_stats_equal(a, b, context=""):
    for field in STAT_FIELDS:
        assert getattr(a, field) == getattr(b, field), (context, field)


class TestEngineSelection:
    def test_vector_engine_instantiates_subclass(self):
        system = _system()
        emulator = Emulator(system, engine="vector")
        assert isinstance(emulator, VectorEmulator)
        assert emulator.engine == "vector"

    def test_default_engine_is_not_vector(self):
        assert not isinstance(Emulator(_system()), VectorEmulator)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ReproError, match="unknown engine"):
            Emulator(_system(), engine="nope")

    def test_engines_tuple_lists_all_tiers(self):
        assert set(ENGINES) == {"reference", "fast", "vector"}


class TestWorkloadDifferential:
    @pytest.mark.parametrize("faults", [0, 3, 8])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_bfs_stats_identical_across_engines(self, faults, seed):
        system = _system(faults=faults, seed=seed)
        graph = random_graph(nodes=40, seed=seed, weighted=True)
        bfs = DistributedBfs(system, graph)
        reference = bfs.run(0, engine="reference")
        vector = bfs.run(0, engine="vector")
        assert reference.distance == vector.distance
        _assert_stats_equal(reference.stats, vector.stats)

    def test_sssp_stats_identical_across_engines(self):
        system = _system(faults=5, seed=3)
        graph = random_graph(nodes=36, seed=3, weighted=True)
        sssp = DistributedSssp(system, graph)
        reference = sssp.run(0, engine="reference")
        vector = sssp.run(0, engine="vector")
        assert reference.distance == vector.distance
        _assert_stats_equal(reference.stats, vector.stats)

    def test_wave_exercises_detours_identically(self):
        cfg = SystemConfig(rows=8, cols=8)
        fmap = FaultMap(cfg).with_fault((0, 4)).with_fault((4, 0))
        system = WaferscaleSystem(cfg, fmap)
        wave = FrontierWave(system, width=6, fanout=3, ttl=4, seed=5)
        reference = wave.run(engine="reference")
        vector = wave.run(engine="vector")
        assert vector.detoured_messages > 0
        _assert_stats_equal(reference, vector)

    @pytest.mark.parametrize("ttl", [1, 3, 5])
    def test_wave_convergence_depth_matches(self, ttl):
        # Each TTL quiesces at a different superstep; the vector run's
        # accounting must stop exactly where the reference run stops.
        wave = FrontierWave(_system(6, 6), width=2, fanout=2, ttl=ttl, seed=ttl)
        reference = wave.run(engine="reference")
        vector = wave.run(engine="vector")
        _assert_stats_equal(reference, vector, context=ttl)

    def test_unreachable_pair_raises_same_message(self):
        cfg = SystemConfig(rows=2, cols=2)
        fmap = FaultMap(cfg).with_fault((0, 1)).with_fault((1, 0))
        system = WaferscaleSystem(cfg, fmap)
        messages = set()
        for engine in ENGINES:
            emulator = Emulator(system, engine=engine)
            emulator.send((0, 0), (1, 1), "ping")
            with pytest.raises(NetworkError) as excinfo:
                emulator.superstep(lambda tile, inbox, em: 0)
            messages.add(str(excinfo.value))
        assert len(messages) == 1
        assert "no path for messages" in messages.pop()

    def test_send_batch_validates_like_scalar_send(self):
        cfg = SystemConfig(rows=4, cols=4)
        fmap = FaultMap(cfg).with_fault((2, 2))
        system = WaferscaleSystem(cfg, fmap)
        errors = {}
        for engine in ENGINES:
            emulator = Emulator(system, engine=engine)
            with pytest.raises(EmulatorError) as excinfo:
                emulator.send_batch((0, 0), [(0, 1), (2, 2)])
            errors[engine] = str(excinfo.value)
        assert len(set(errors.values())) == 1
        assert "faulty or absent" in errors["vector"]

    def test_vector_engine_under_route_checker(self):
        system = _system(faults=4, seed=2)
        checker = RouteCoherenceChecker(sample=1)
        emulator = Emulator(system, engine="vector", checkers=[checker])
        healthy = system.healthy_coords()
        for dst in healthy[1:12]:
            emulator.send(healthy[0], dst, payload=None)
        emulator.superstep(lambda tile, inbox, em: 0)
        assert checker.checks > 0


class TestMessageWords:
    """Both engines price the same integer word count or reject it alike."""

    @pytest.mark.parametrize("engine", ["reference", "vector"])
    @pytest.mark.parametrize("words", [2.5, 2.0, "3", True, np.bool_(True), None])
    def test_non_integer_words_rejected(self, engine, words):
        emulator = Emulator(_system(4, 4), engine=engine)
        with pytest.raises(EmulatorError, match="words"):
            emulator.send((0, 0), (3, 3), None, words=words)
        with pytest.raises(EmulatorError, match="words"):
            emulator.send_batch((0, 0), [(3, 3)], words=words)
        with pytest.raises(EmulatorError, match="words"):
            emulator.send_batch((0, 0), np.array([15]), words=words)

    @pytest.mark.parametrize("engine", ["reference", "vector"])
    @pytest.mark.parametrize("words", [0, -1, np.int64(0)])
    def test_words_below_one_rejected(self, engine, words):
        emulator = Emulator(_system(4, 4), engine=engine)
        with pytest.raises(EmulatorError, match="at least one word"):
            emulator.send((0, 0), (3, 3), None, words=words)
        with pytest.raises(EmulatorError, match="at least one word"):
            emulator.send_batch((0, 0), [(3, 3)], words=words)

    def test_numpy_integer_words_priced_like_python_int(self):
        stats = {}
        for engine in ("reference", "vector"):
            for words in (3, np.int64(3), np.uint8(3)):
                emulator = Emulator(_system(4, 4), engine=engine)
                emulator.send((0, 0), (3, 3), None, words=words)
                emulator.send_batch((0, 1), [(3, 3)], words=words)
                emulator.superstep(lambda tile, inbox, em: 0)
                stats[engine, repr(words)] = emulator.stats
        assert len({repr(s) for s in stats.values()}) == 1
        assert all(type(s.network_cycles) is int for s in stats.values())


class _CountingCoords:
    """An ``active`` iterable that counts how often it is iterated."""

    def __init__(self, coords):
        self.coords = list(coords)
        self.iterations = 0

    def __iter__(self):
        self.iterations += 1
        return iter(self.coords)


class TestActiveValidation:
    @staticmethod
    def _faulty():
        cfg = SystemConfig(rows=4, cols=4)
        return WaferscaleSystem(cfg, FaultMap(cfg).with_fault((2, 2)))

    @pytest.mark.parametrize("engine", ["reference", "vector"])
    @pytest.mark.parametrize("bad", [(2, 2), (4, 0), (0, -1)])
    def test_superstep_rejects_bad_active_tile(self, engine, bad):
        emulator = Emulator(self._faulty(), engine=engine)
        match = f"active tile {re.escape(str(bad))} is faulty or absent"
        with pytest.raises(EmulatorError, match=match):
            emulator.superstep(lambda tile, inbox, em: 0, active=[(0, 0), bad])
        assert emulator.stats.supersteps == 0

    @pytest.mark.parametrize("engine", ["reference", "vector"])
    @pytest.mark.parametrize("bad", [(2, 2), (0, 4)])
    def test_run_rejects_bad_active_tile(self, engine, bad):
        emulator = Emulator(self._faulty(), engine=engine)
        with pytest.raises(EmulatorError, match=f"active tile {re.escape(str(bad))} is faulty"):
            emulator.run(lambda tile, inbox, em: 0, active=[bad])
        assert emulator.stats.supersteps == 0

    @pytest.mark.parametrize("engine", ["reference", "vector"])
    def test_run_validates_active_once(self, engine):
        emulator = Emulator(self._faulty(), engine=engine)
        emulator.send((0, 0), (0, 1), 3)

        def relay(tile, inbox, em):
            for message in inbox:
                if message.payload:
                    em.send(tile, (3, 3), message.payload - 1)
            return len(inbox)

        active = _CountingCoords([(1, 1), (3, 0)])
        stats = emulator.run(relay, active=active)
        assert stats.supersteps > 2
        assert active.iterations == 1


def _every_tile(m):
    """Drop every declared ``active``: ``compute`` runs on every healthy tile."""
    emu_run, emu_superstep = Emulator.run, Emulator.superstep
    m.setattr(
        Emulator, "run",
        lambda self, compute, max_supersteps=10_000, active=None:
        emu_run(self, compute, max_supersteps),
    )
    m.setattr(
        Emulator, "superstep",
        lambda self, compute, active=None: emu_superstep(self, compute),
    )


def _schedule_runs(monkeypatch, run):
    """``run(engine)`` on both engines, as declared and on every tile.

    The every-tile schedule drops each ``active`` argument the workload
    passes, so ``compute`` runs on every healthy tile each superstep.
    Returns ``{(engine, schedule): run(engine)}``.
    """
    out = {}
    for engine in ("reference", "vector"):
        clear_route_cache()
        out[engine, "declared"] = run(engine)
        with monkeypatch.context() as m:
            _every_tile(m)
            clear_route_cache()
            out[engine, "every-tile"] = run(engine)
    return out


def _assert_all_equal(runs):
    first = next(iter(runs.values()))
    for key, value in runs.items():
        assert value == first, key


class TestScheduleDifferential:
    """Declared schedules change no stat, inbox order or result."""

    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize(
        "rows, faults, ranks", [(8, 5, 12), (32, 8, 20)], ids=["8x8", "32x32"]
    )
    def test_collectives(self, monkeypatch, pattern, placement, rows, faults, ranks):
        system = _system(rows, rows, faults=faults)
        spec = CollectiveSpec(
            pattern, seed=4, ranks=ranks, segments=2, root=1, placement=placement
        )
        driver = CollectiveDriver(system, spec)

        def run(engine):
            stats = driver.run(engine=engine)
            return stats, {r: dict(slots) for r, slots in driver.state.items()}

        runs = _schedule_runs(monkeypatch, run)
        _assert_all_equal(runs)
        assert runs["vector", "declared"][0].messages_sent > 0

    @pytest.mark.parametrize("rows, faults", [(8, 5), (32, 8)], ids=["8x8", "32x32"])
    def test_bfs_and_sssp(self, monkeypatch, rows, faults):
        system = _system(rows, rows, faults=faults)
        graph = random_graph(nodes=60, seed=5, weighted=True)
        bfs = DistributedBfs(system, graph)
        sssp = DistributedSssp(system, graph)

        def run(engine):
            b = bfs.run(0, engine=engine)
            s = sssp.run(0, engine=engine)
            return b.stats, b.distance, s.stats, s.distance

        runs = _schedule_runs(monkeypatch, run)
        _assert_all_equal(runs)
        assert runs["vector", "declared"][1] == reference_bfs(graph, 0)

    @pytest.mark.parametrize("rows, faults", [(8, 5), (32, 8)], ids=["8x8", "32x32"])
    def test_wave(self, monkeypatch, rows, faults):
        system = _system(rows, rows, faults=faults)
        wave = FrontierWave(system, width=6, fanout=3, ttl=4, seed=5)
        runs = _schedule_runs(monkeypatch, lambda engine: wave.run(engine=engine))
        _assert_all_equal(runs)
        assert runs["vector", "declared"].supersteps > 1

    @pytest.mark.parametrize("rows, faults", [(8, 5), (32, 8)], ids=["8x8", "32x32"])
    def test_pagerank(self, monkeypatch, rows, faults):
        system = _system(rows, rows, faults=faults)
        graph = random_graph(nodes=50, seed=6)
        pagerank = DistributedPageRank(system, graph)

        def run(engine):
            result = pagerank.run(iterations=5, engine=engine)
            return result.stats, result.ranks, result.iterations

        runs = _schedule_runs(monkeypatch, run)
        _assert_all_equal(runs)
        assert runs["vector", "declared"][0].messages_sent > 0


def _record_computes(m, log):
    """Wrap every ``compute`` the emulator runs; log (step, tile, mail)."""
    emu_run, emu_superstep = Emulator.run, Emulator.superstep

    def recorded(compute):
        def wrapper(tile, inbox, em):
            log.append((em.stats.supersteps, tile, bool(inbox)))
            return compute(tile, inbox, em)

        return wrapper

    m.setattr(
        Emulator, "run",
        lambda self, compute, *args, **kwargs:
        emu_run(self, recorded(compute), *args, **kwargs),
    )
    m.setattr(
        Emulator, "superstep",
        lambda self, compute, *args, **kwargs:
        emu_superstep(self, recorded(compute), *args, **kwargs),
    )


class TestComputeCalls:
    """``compute`` runs once per superstep on exactly mail ∪ active."""

    @pytest.mark.parametrize("engine", ["reference", "vector"])
    def test_superstep_calls_mail_and_active_in_row_major_order(self, engine):
        emulator = Emulator(_system(4, 4), engine=engine)
        emulator.send((0, 0), (3, 1), "a")
        emulator.send_batch((0, 0), [(1, 2), (3, 1)], payload="b")
        emulator.superstep(lambda tile, inbox, em: 0, active=())
        calls = []

        def compute(tile, inbox, em):
            calls.append((tile, [m.payload for m in inbox]))
            return 0

        emulator.superstep(compute, active=[(2, 0), (1, 2)])
        assert calls == [
            ((1, 2), ["b"]),
            ((2, 0), []),
            ((3, 1), ["a", "b"]),
        ]
        calls.clear()
        emulator.superstep(compute)
        assert [tile for tile, _ in calls] == emulator.system.healthy_coords()

    @pytest.mark.parametrize("engine", ["reference", "vector"])
    def test_calls_equal_mail_union_active(self, monkeypatch, engine):
        cfg = SystemConfig(rows=8, cols=8)
        system = WaferscaleSystem(cfg, random_fault_map(cfg, 4, rng=2))
        driver = CollectiveDriver(
            system, CollectiveSpec("ring-all-reduce", seed=1, ranks=10, segments=2)
        )
        graph = random_graph(nodes=40, seed=1)
        wave = FrontierWave(system, width=4, fanout=2, ttl=3, seed=1)
        pagerank = DistributedPageRank(system, graph)
        owners = frozenset(pagerank.partition.owner.values())
        cases = [
            (lambda: driver.run(engine=engine), lambda step: set(driver.rank_coords)),
            (lambda: DistributedBfs(system, graph).run(0, engine=engine), lambda step: set()),
            (lambda: wave.run(engine=engine), lambda step: set()),
            (
                lambda: pagerank.run(iterations=3, engine=engine),
                lambda step: set(owners) if step % 2 == 0 else set(),
            ),
        ]
        for run, declared in cases:
            every = _schedule_log(monkeypatch, run, every_tile=True)
            sparse = _schedule_log(monkeypatch, run, every_tile=False)
            # A step that calls no tile is missing from the sparse log.
            assert set(sparse) <= set(every)
            for step, calls in every.items():
                tiles = [tile for tile, _ in sparse.get(step, [])]
                mail = {tile for tile, has_mail in calls if has_mail}
                assert tiles == sorted(mail | declared(step)), step
            total_every = sum(len(c) for c in every.values())
            total_sparse = sum(len(c) for c in sparse.values())
            assert total_sparse < total_every


def _schedule_log(monkeypatch, run, every_tile):
    """``{step: [(tile, has_mail), ...]}`` of one run's compute calls."""
    log = []
    with monkeypatch.context() as m:
        if every_tile:
            _every_tile(m)
        _record_computes(m, log)
        run()
    steps: dict[int, list] = {}
    for step, tile, mail in log:
        steps.setdefault(step, []).append((tile, mail))
    return steps


class TestEdgeCases:
    """Degenerate runs, vector engine against the reference engine."""

    def _runs(self, system, compute, seed=None):
        stats = {}
        for engine in ("reference", "vector"):
            emulator = Emulator(system, engine=engine)
            if seed is not None:
                seed(emulator)
            stats[engine] = emulator.run(compute)
        _assert_stats_equal(stats["reference"], stats["vector"])
        return stats["vector"]

    def test_empty_frontier(self):
        # No seed sends: the run quiesces after one superstep with zero
        # messages.
        stats = self._runs(_system(4, 4), lambda tile, inbox, em: 0)
        assert stats.messages_sent == 0
        assert stats.supersteps == 1

    def test_single_tile_self_flows(self):
        def seed(em):
            em.send((0, 0), (0, 0), "loop")

        def compute(tile, inbox, em):
            return len(inbox)

        stats = self._runs(_system(1, 1), compute, seed=seed)
        # Self-delivery bypasses the network: no send accounting.
        assert stats.messages_sent == 0
        assert stats.message_hops == 0

    def test_non_convergent_run_raises_same_message(self):
        def chatty(tile, inbox, em):
            em.send(tile, (0, 0), "again")
            return 0

        messages = set()
        for engine in ENGINES:
            emulator = Emulator(_system(4, 4), engine=engine)
            emulator.send((0, 1), (0, 0), "go")
            with pytest.raises(EmulatorError) as excinfo:
                emulator.run(chatty, max_supersteps=5)
            messages.add(str(excinfo.value))
        assert messages == {"workload did not converge in 5 steps"}

    def test_fully_faulty_map_rejected_at_construction(self):
        cfg = SystemConfig(rows=2, cols=2)
        fmap = FaultMap(cfg, frozenset(cfg.tile_coords()))
        with pytest.raises(EmulatorError, match="no healthy tiles"):
            WaferscaleSystem(cfg, fmap)


class TestCheckpointedNocCoUse:
    def test_vector_emulation_between_noc_checkpoint_and_resume(self, tmp_path):
        # A checkpointed NoC run and a vector emulation share the
        # process; neither the route-table cache nor the NoC snapshot
        # may bleed into the other.
        from repro.noc.dualnetwork import NetworkId
        from repro.noc.simulator import NocSimulator
        from repro.workloads.traffic import TrafficPattern, generate_traffic

        cfg = SystemConfig(rows=6, cols=6)
        fmap = FaultMap(cfg).with_fault((2, 3))
        schedule = generate_traffic(
            cfg, TrafficPattern.UNIFORM, 0.05, 40, seed=3
        )

        def drive(sim, from_cycle, to_cycle):
            for cycle, packet in schedule:
                if from_cycle <= cycle < to_cycle:
                    while sim.cycle < cycle:
                        sim.step()
                    sim.inject(packet, network=NetworkId.XY)
            while sim.cycle < to_cycle:
                sim.step()

        baseline = NocSimulator(cfg, fmap, engine="vector")
        drive(baseline, 0, 80)

        sim = NocSimulator(cfg, fmap, engine="vector")
        drive(sim, 0, 40)
        snapshot = tmp_path / "noc.npz"
        sim.save_state(snapshot)

        # Interleave a full vector emulation while the snapshot is live.
        system = WaferscaleSystem(cfg, fmap)
        wave = FrontierWave(system, width=4, fanout=2, ttl=3, seed=1)
        emu_stats = wave.run(engine="vector")
        assert emu_stats.messages_sent > 0

        resumed = NocSimulator.load_state(snapshot, engine="vector")
        drive(resumed, 40, 80)
        assert resumed.report() == baseline.report()

        # And the emulation repeats bit-identically after the NoC run.
        assert wave.run(engine="vector") == emu_stats
