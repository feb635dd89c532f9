"""Differential tests for the struct-of-arrays vector emulator.

The vector engine replaces the per-message routing loop with one
``np.unique``-keyed flow kernel per superstep; these tests prove every
:class:`~repro.arch.emulator.EmulationStats` field (and every workload
result) bit-identical to the scalar reference engine across
workloads, fault maps and seeds — including the error path, where an
unreachable destination must raise the same :class:`NetworkError`
message — and prove :func:`~repro.arch.vectoremu.emulate_batch`
per-trial stats identical to individual ``engine="vector"`` runs.
"""

import numpy as np
import pytest

from repro.arch.emulator import ENGINES, Emulator
from repro.arch.system import WaferscaleSystem
from repro.arch.vectoremu import BatchEmulator, VectorEmulator, emulate_batch
from repro.config import SystemConfig
from repro.errors import EmulatorError, NetworkError, ReproError
from repro.noc.faults import FaultMap, random_fault_map
from repro.verify.invariants import RouteCoherenceChecker
from repro.workloads.bfs import DistributedBfs
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


class TestEmulateBatch:
    def _waves(self, specs):
        waves = []
        for rows, cols, faults, seed in specs:
            system = _system(rows, cols, faults=faults, seed=seed)
            waves.append(
                FrontierWave(system, width=3, fanout=2, ttl=3, seed=seed)
            )
        return waves

    def test_batch_stats_match_individual_vector_runs(self):
        waves = self._waves([(6, 6, 0, 0), (6, 6, 0, 1), (6, 6, 0, 2)])
        expected = [w.run(engine="vector") for w in waves]
        for wave in waves:
            wave.reset()
        batched = emulate_batch(
            [w.system for w in waves],
            [w.compute for w in waves],
            init=[w.seed_sends for w in waves],
        )
        for got, want in zip(batched, expected):
            _assert_stats_equal(got, want)

    def test_batch_with_heterogeneous_convergence(self):
        # Different TTLs converge at different supersteps; per-trial
        # accounting must stop exactly where the individual run stops.
        system = _system(6, 6)
        waves = [
            FrontierWave(system, width=2, fanout=2, ttl=ttl, seed=ttl)
            for ttl in (1, 3, 5)
        ]
        expected = [w.run(engine="vector") for w in waves]
        for wave in waves:
            wave.reset()
        batched = emulate_batch(
            [w.system for w in waves],
            [w.compute for w in waves],
            init=[w.seed_sends for w in waves],
        )
        assert [s.supersteps for s in batched] == [
            s.supersteps for s in expected
        ]
        for got, want in zip(batched, expected):
            _assert_stats_equal(got, want)

    def test_empty_frontier_trial(self):
        # No seed sends: the trial quiesces after one superstep with
        # zero messages, exactly like a solo vector run.
        system = _system(4, 4)
        solo = Emulator(system, engine="vector").run(
            lambda tile, inbox, em: 0
        )
        [batched] = emulate_batch([system], [lambda tile, inbox, em: 0])
        _assert_stats_equal(batched, solo)
        assert batched.messages_sent == 0
        assert batched.supersteps == 1

    def test_single_tile_trial_self_flows(self):
        system = _system(1, 1)

        def seed(em):
            em.send((0, 0), (0, 0), "loop")

        def compute(tile, inbox, em):
            return len(inbox)

        solo_em = Emulator(system, engine="vector")
        seed(solo_em)
        solo = solo_em.run(compute)
        [batched] = emulate_batch([system], [compute], init=[seed])
        _assert_stats_equal(batched, solo)
        # Self-delivery bypasses the network: no send accounting.
        assert batched.messages_sent == 0

    def test_fully_faulty_map_rejected_at_construction(self):
        cfg = SystemConfig(rows=2, cols=2)
        fmap = FaultMap(cfg, frozenset(cfg.tile_coords()))
        with pytest.raises(EmulatorError, match="no healthy tiles"):
            WaferscaleSystem(cfg, fmap)

    def test_batch_validates_lengths(self):
        system = _system(4, 4)
        compute = lambda tile, inbox, em: 0  # noqa: E731
        with pytest.raises(EmulatorError, match="compute callables"):
            emulate_batch([system], [compute, compute])
        with pytest.raises(EmulatorError, match="init callables"):
            emulate_batch([system], [compute], init=[None, None])
        with pytest.raises(EmulatorError):
            BatchEmulator([])

    def test_non_convergent_trial_names_its_index(self):
        system = _system(4, 4)

        def chatty(tile, inbox, em):
            em.send(tile, (0, 0), "again")
            return 0

        def seed(em):
            em.send((0, 1), (0, 0), "go")

        with pytest.raises(EmulatorError, match=r"trial 1"):
            emulate_batch(
                [system, system],
                [lambda tile, inbox, em: 0, chatty],
                init=[None, seed],
                max_supersteps=5,
            )


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
