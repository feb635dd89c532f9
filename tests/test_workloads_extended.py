"""Tests for the stencil and PageRank workloads, and the analysis layer."""

import numpy as np
import pytest

from repro.analysis.dse import sweep_array_size
from repro.analysis.render import render_field
from repro.arch.system import WaferscaleSystem
from repro.config import SystemConfig
from repro.errors import ReproError, WorkloadError
from repro.noc.faults import FaultMap
from repro.workloads.graphs import grid_graph, random_graph
from repro.workloads.pagerank import DistributedPageRank, reference_pagerank
from repro.workloads.stencil import DistributedStencil, reference_jacobi


@pytest.fixture(scope="module")
def system44():
    return WaferscaleSystem(SystemConfig(rows=4, cols=4))


class TestStencil:
    def test_matches_numpy_reference(self, system44):
        field = np.zeros((16, 16))
        field[0, :] = 100.0
        field[:, 0] = 50.0
        result = DistributedStencil(system44, field).run(iterations=12)
        np.testing.assert_allclose(result.field, reference_jacobi(field, 12))

    def test_heat_diffuses_inward(self, system44):
        field = np.zeros((16, 16))
        field[0, :] = 100.0
        result = DistributedStencil(system44, field).run(iterations=30)
        assert result.field[5, 8] > 0.0
        assert result.field[5, 8] < 100.0

    def test_zero_iterations_identity(self, system44):
        field = np.random.default_rng(0).random((16, 16))
        result = DistributedStencil(system44, field).run(iterations=0)
        np.testing.assert_allclose(result.field, field)

    def test_halo_messages_counted(self, system44):
        field = np.zeros((16, 16))
        result = DistributedStencil(system44, field).run(iterations=3)
        # 4x4 tiles: 2*4*3 = 24 interior tile-pair adjacencies, two
        # directions each, per iteration.
        assert result.stats.messages_sent == 3 * 48

    def test_uneven_field_rejected(self, system44):
        with pytest.raises(WorkloadError):
            DistributedStencil(system44, np.zeros((15, 16)))

    def test_faulty_system_rejected(self):
        cfg = SystemConfig(rows=4, cols=4)
        system = WaferscaleSystem(cfg, FaultMap(cfg, frozenset({(0, 0)})))
        with pytest.raises(WorkloadError):
            DistributedStencil(system, np.zeros((16, 16)))

    def test_1d_field_rejected(self, system44):
        with pytest.raises(WorkloadError):
            DistributedStencil(system44, np.zeros(16))


class TestPageRank:
    def test_matches_networkx(self, system44):
        graph = random_graph(150, 5.0, seed=4)
        result = DistributedPageRank(system44, graph).run(iterations=100)
        reference = reference_pagerank(graph)
        for node, rank in reference.items():
            assert result.ranks[node] == pytest.approx(rank, abs=1e-4)

    def test_ranks_sum_to_one(self, system44):
        graph = random_graph(100, 4.0, seed=5)
        result = DistributedPageRank(system44, graph).run(iterations=60)
        assert sum(result.ranks.values()) == pytest.approx(1.0, abs=1e-6)

    def test_hub_outranks_leaf(self, system44):
        graph = grid_graph(10)
        # Attach many leaves to node 0 to make it a hub.
        next_id = 100
        for _ in range(12):
            graph.add_edge(0, next_id)
            next_id += 1
        result = DistributedPageRank(system44, graph).run(iterations=80)
        assert result.ranks[0] > result.ranks[55]

    def test_convergence_early_exit(self, system44):
        graph = grid_graph(6)
        result = DistributedPageRank(system44, graph).run(
            iterations=500, tolerance=1e-10
        )
        assert result.iterations < 500

    def test_runs_on_faulty_wafer(self):
        cfg = SystemConfig(rows=4, cols=4)
        system = WaferscaleSystem(cfg, FaultMap(cfg, frozenset({(2, 2)})))
        graph = random_graph(80, 4.0, seed=6)
        result = DistributedPageRank(system, graph).run(iterations=60)
        reference = reference_pagerank(graph)
        for node, rank in reference.items():
            assert result.ranks[node] == pytest.approx(rank, abs=1e-4)

    def test_invalid_damping(self, system44):
        graph = grid_graph(3)
        with pytest.raises(WorkloadError):
            DistributedPageRank(system44, graph, damping=1.0)


class TestDse:
    def test_array_size_sweep_shapes(self):
        points = sweep_array_size([8, 16, 32])
        voltages = [p.min_delivered_v for p in points]
        assert voltages == sorted(voltages, reverse=True)   # bigger = worse
        bandwidths = [p.network_bw_tbps for p in points]
        assert bandwidths == sorted(bandwidths)             # bigger = more BW

    def test_32x32_hits_the_ldo_floor(self):
        point = sweep_array_size([32])[0]
        assert point.min_delivered_v == pytest.approx(1.4, abs=0.05)

class TestRender:
    def test_bad_inputs(self):
        with pytest.raises(ReproError):
            render_field(np.zeros(3))
        with pytest.raises(ReproError):
            render_field(np.zeros((2, 2)), ramp="")

    def test_render_shape(self):
        art = render_field(np.arange(12).reshape(3, 4), legend=False)
        lines = art.splitlines()
        assert len(lines) == 3
        assert all(len(line) == 4 for line in lines)

    def test_extremes_use_ramp_ends(self):
        art = render_field(np.array([[0.0, 1.0]]), legend=False)
        assert art[0] == " " and art[-1] == "@"

    def test_constant_field(self):
        art = render_field(np.full((2, 2), 5.0), legend=False)
        assert set(art.replace("\n", "")) == {" "}

    def test_legend(self):
        art = render_field(np.array([[1.0, 2.0]]))
        assert "1" in art.splitlines()[-1]
