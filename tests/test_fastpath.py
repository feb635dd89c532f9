"""Tests for the unified ``engine="fast"|"reference"`` selection.

One vocabulary across every dual-implementation entry point
(:mod:`repro.fastpath`): each entry point's kinds must agree on their
results, and an unknown kind must be refused with the entry point named.
"""

import numpy as np
import pytest

import networkx as nx

from repro.arch.system import WaferscaleSystem
from repro.config import SystemConfig
from repro.errors import ReproError
from repro.fastpath import ENGINE_KINDS, VECTOR_ENGINE_KINDS, resolve_engine_kind
from repro.noc.faults import random_fault_map
from repro.noc.simulator import NocSimulator
from repro.pdn.solver import PdnSolver
from repro.workloads.bfs import DistributedBfs


@pytest.fixture()
def cfg():
    return SystemConfig.from_dict({"rows": 6, "cols": 6})


@pytest.fixture()
def fmap(cfg):
    return random_fault_map(cfg, 4, rng=3)


class TestResolver:
    def test_default_is_fast(self):
        assert resolve_engine_kind(None) == "fast"
        assert ENGINE_KINDS == ("fast", "reference")

    def test_explicit_kind_wins(self):
        assert resolve_engine_kind("reference") == "reference"
        assert resolve_engine_kind("fast", default="reference") == "fast"

    def test_unknown_kind_raises(self):
        with pytest.raises(ReproError, match="unknown engine"):
            resolve_engine_kind("warp", entry_point="X")

    def test_one_three_tier_tuple(self):
        from repro.arch import emulator
        from repro.noc import simulator

        assert emulator.ENGINES is VECTOR_ENGINE_KINDS
        assert simulator.ENGINES is VECTOR_ENGINE_KINDS


class TestPdnSolverKinds:
    def test_engine_kinds_agree(self, cfg):
        fast = PdnSolver(cfg, engine="fast").solve()
        reference = PdnSolver(cfg, engine="reference").solve()
        np.testing.assert_allclose(fast.voltages, reference.voltages)

    def test_unknown_kind_names_solver(self, cfg):
        with pytest.raises(ReproError, match="PdnSolver: unknown engine"):
            PdnSolver(cfg, engine="vector")


class TestEmulatorKinds:
    def _bfs(self, cfg, fmap):
        system = WaferscaleSystem(cfg, fmap)
        graph = nx.gnm_random_graph(40, 80, seed=9)
        return DistributedBfs(system, graph)

    def test_engine_kinds_agree(self, cfg, fmap):
        fast = self._bfs(cfg, fmap).run(0, engine="fast")
        reference = self._bfs(cfg, fmap).run(0, engine="reference")
        assert fast.distance == reference.distance

    def test_fast_runs_the_scalar_oracle(self, cfg, fmap):
        from repro.arch.emulator import Emulator

        system = WaferscaleSystem(cfg, fmap)
        assert type(Emulator(system, engine="fast")) is Emulator
        assert type(Emulator(system, engine="reference")) is Emulator


class TestNocSimulatorKinds:
    def test_accepts_both_kinds(self, cfg):
        for kind in ENGINE_KINDS:
            sim = NocSimulator(cfg, engine=kind)
            assert sim.engine == kind
