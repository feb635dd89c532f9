"""Differential tests for the struct-of-arrays vector emulator.

The vector engine replaces the per-message routing loop with one
``np.unique``-keyed flow kernel per superstep; these tests prove every
:class:`~repro.arch.emulator.EmulationStats` field (and every workload
result) bit-identical to the scalar reference engine across
workloads, fault maps and seeds — including the error path, where an
unreachable destination must raise the same :class:`NetworkError`
message.
"""

import numpy as np
import pytest

from repro.arch.emulator import ENGINES, Emulator
from repro.arch.system import WaferscaleSystem
from repro.arch.tile import Tile
from repro.arch.vectoremu import VectorEmulator
from repro.config import SystemConfig
from repro.errors import EmulatorError, NetworkError, ReproError
from repro.noc.faults import FaultMap, random_fault_map
from repro.verify.invariants import RouteCoherenceChecker
from repro.workloads.bfs import DistributedBfs, reference_bfs
from repro.workloads.collectives import CollectiveDriver, CollectiveSpec
from repro.workloads.graphs import random_graph
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


class TestMessagePassingBuildsNoTiles:
    """The emulator reads coordinates, the kernel and the fault map only."""

    @staticmethod
    def _forbid_tiles(monkeypatch):
        def forbidden(self, *args, **kwargs):
            raise AssertionError("message passing built a Tile")

        monkeypatch.setattr(Tile, "__init__", forbidden)

    @staticmethod
    def _faulty_system():
        cfg = SystemConfig(rows=8, cols=8)
        return WaferscaleSystem(cfg, FaultMap(cfg, frozenset({(0, 4), (4, 0), (5, 5)})))

    @pytest.mark.parametrize("engine", ["reference", "vector"])
    def test_collective_and_bfs_build_no_tile(self, monkeypatch, engine):
        self._forbid_tiles(monkeypatch)
        system = self._faulty_system()
        spec = CollectiveSpec("ring-all-reduce", seed=3, ranks=8, segments=2)
        driver = CollectiveDriver(system, spec)
        stats = driver.run(engine=engine)
        assert stats.messages_sent > 0
        assert driver.verify() > 0
        graph = random_graph(nodes=40, seed=2)
        result = DistributedBfs(system, graph).run(0, engine=engine)
        assert result.distance == reference_bfs(graph, 0)
        assert system._tiles is None
        assert system.total_remote_accesses == 0

    def test_faulty_tile_lookup_builds_nothing(self, monkeypatch):
        self._forbid_tiles(monkeypatch)
        system = self._faulty_system()
        for coord in [(0, 4), (8, 0), (0, -1)]:
            with pytest.raises(EmulatorError, match="faulty or absent"):
                system.tile(coord)
        assert system.healthy_coords() == system.fault_map.healthy_tiles()
        assert system._tiles is None

    def test_isa_entry_point_builds_every_healthy_tile(self):
        system = self._faulty_system()
        assert system._tiles is None
        system.write_shared((1, 1), 0, 8, 42)
        assert list(system.tiles) == system.healthy_coords()
        assert system.tile((1, 1)) is system.tiles[(1, 1)]
        assert system.read_shared((1, 1), 0, 8) == 42
        assert system.total_remote_accesses == 0


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
