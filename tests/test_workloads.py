"""Tests for repro.workloads (graphs, BFS, SSSP, traffic) on the emulator."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.system import WaferscaleSystem
from repro.config import SystemConfig
from repro.errors import WorkloadError
from repro.noc.faults import FaultMap, random_fault_map
from repro.workloads.bfs import DistributedBfs, reference_bfs
from repro.workloads.graphs import (
    grid_graph,
    partition_graph,
    random_graph,
    rmat_graph,
)
from repro.workloads.sssp import DistributedSssp, reference_sssp
from repro.workloads.traffic import (
    TrafficPattern,
    destination_for,
    generate_traffic,
    traffic_schedule,
)

import numpy as np


@pytest.fixture(scope="module")
def system44():
    return WaferscaleSystem(SystemConfig(rows=4, cols=4))


class TestGraphGenerators:
    def test_random_graph_connected(self):
        for seed in range(5):
            graph = random_graph(100, 3.0, seed=seed)
            assert nx.is_connected(graph)

    def test_weighted_graph_has_weights(self):
        graph = random_graph(50, 4.0, weighted=True)
        for _, _, data in graph.edges(data=True):
            assert 1 <= data["weight"] <= 15

    def test_grid_graph_shape(self):
        graph = grid_graph(5)
        assert graph.number_of_nodes() == 25
        assert nx.is_connected(graph)

    def test_rmat_connected_and_skewed(self):
        graph = rmat_graph(8, edge_factor=8, seed=1)
        assert nx.is_connected(graph)
        degrees = sorted((d for _, d in graph.degree()), reverse=True)
        # Power-law-ish: the top node has far more than the median degree.
        assert degrees[0] > 4 * degrees[len(degrees) // 2]

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            random_graph(0)
        with pytest.raises(WorkloadError):
            rmat_graph(0)
        with pytest.raises(WorkloadError):
            grid_graph(0)

    def test_partition_covers_all_vertices(self, system44):
        graph = random_graph(97, 4.0)
        partition = partition_graph(graph, system44.healthy_coords())
        assert set(partition.owner) == set(graph.nodes)
        assert partition.balance > 0.5


class TestBfs:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_networkx(self, system44, seed):
        graph = random_graph(150, 4.0, seed=seed)
        result = DistributedBfs(system44, graph).run(source=0)
        assert result.distance == reference_bfs(graph, 0)

    def test_grid_graph_bfs(self, system44):
        graph = grid_graph(8)
        result = DistributedBfs(system44, graph).run(source=0)
        assert result.distance == reference_bfs(graph, 0)
        assert result.reached() == 64

    def test_rmat_bfs(self, system44):
        graph = rmat_graph(7, seed=2)
        result = DistributedBfs(system44, graph).run(source=0)
        assert result.distance == reference_bfs(graph, 0)

    def test_supersteps_track_eccentricity(self, system44):
        graph = grid_graph(6)
        result = DistributedBfs(system44, graph).run(source=0)
        # Frontier BFS needs ~one superstep per BFS level (+setup/drain).
        ecc = max(result.distance.values())
        assert ecc <= result.stats.supersteps <= ecc + 3

    def test_runs_on_faulty_wafer(self):
        cfg = SystemConfig(rows=4, cols=4)
        fmap = FaultMap(cfg, frozenset({(1, 2), (2, 1)}))
        system = WaferscaleSystem(cfg, fmap)
        graph = random_graph(120, 4.0, seed=9)
        result = DistributedBfs(system, graph).run(source=0)
        assert result.distance == reference_bfs(graph, 0)

    def test_bad_source_rejected(self, system44):
        graph = random_graph(10, 2.0)
        with pytest.raises(WorkloadError):
            DistributedBfs(system44, graph).run(source=999)

    @given(seed=st.integers(0, 100), nodes=st.integers(20, 120))
    @settings(max_examples=10, deadline=None)
    def test_bfs_correct_property(self, seed, nodes):
        system = WaferscaleSystem(SystemConfig(rows=3, cols=3))
        graph = random_graph(nodes, 3.0, seed=seed)
        result = DistributedBfs(system, graph).run(source=0)
        assert result.distance == reference_bfs(graph, 0)


class TestSssp:
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_matches_dijkstra(self, system44, seed):
        graph = random_graph(120, 4.0, seed=seed, weighted=True)
        result = DistributedSssp(system44, graph).run(source=0)
        reference = reference_sssp(graph, 0)
        assert set(result.distance) == set(reference)
        assert result.reached() == len(reference)
        for node, dist in reference.items():
            assert result.distance[node] == pytest.approx(dist)

    def test_unweighted_equals_bfs(self, system44):
        graph = random_graph(80, 3.0, seed=4)
        sssp = DistributedSssp(system44, graph).run(source=0)
        bfs = DistributedBfs(system44, graph).run(source=0)
        assert {k: int(v) for k, v in sssp.distance.items()} == bfs.distance

    def test_negative_weight_rejected(self, system44):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=-2)
        with pytest.raises(WorkloadError):
            DistributedSssp(system44, graph)

    def test_faulty_wafer_sssp(self):
        cfg = SystemConfig(rows=4, cols=4)
        system = WaferscaleSystem(cfg, random_fault_map(cfg, 2, rng=5))
        graph = random_graph(100, 4.0, seed=6, weighted=True)
        result = DistributedSssp(system, graph).run(source=0)
        reference = reference_sssp(graph, 0)
        for node, dist in reference.items():
            assert result.distance[node] == pytest.approx(dist)


class TestTraffic:
    def test_uniform_rate(self):
        cfg = SystemConfig(rows=8, cols=8)
        traffic = generate_traffic(cfg, TrafficPattern.UNIFORM, 0.1, 100, seed=0)
        expected = 64 * 100 * 0.1
        assert expected * 0.6 < len(traffic) < expected * 1.4

    def test_transpose_destination(self):
        cfg = SystemConfig(rows=8, cols=8)
        rng = np.random.default_rng(0)
        assert destination_for((2, 5), TrafficPattern.TRANSPOSE, cfg, rng) == (5, 2)

    def test_hotspot_single_destination(self):
        cfg = SystemConfig(rows=8, cols=8)
        traffic = generate_traffic(
            cfg, TrafficPattern.HOTSPOT, 0.1, 20, seed=1, hotspot=(3, 3)
        )
        assert all(p.dst == (3, 3) for _, p in traffic)

    def test_neighbor_wraps(self):
        cfg = SystemConfig(rows=4, cols=4)
        rng = np.random.default_rng(0)
        assert destination_for((0, 3), TrafficPattern.NEIGHBOR, cfg, rng) == (0, 0)

    def test_bit_reversal_in_bounds(self):
        cfg = SystemConfig(rows=8, cols=8)
        rng = np.random.default_rng(0)
        for coord in cfg.tile_coords():
            dst = destination_for(coord, TrafficPattern.BIT_REVERSAL, cfg, rng)
            cfg.validate_coord(dst)

    def test_invalid_rate(self):
        cfg = SystemConfig(rows=4, cols=4)
        with pytest.raises(WorkloadError):
            generate_traffic(cfg, TrafficPattern.UNIFORM, 1.5, 10)

    @pytest.mark.parametrize("make", [traffic_schedule, generate_traffic])
    @pytest.mark.parametrize("hotspot", [(9, 9), (-1, 0), (0, 4), (1,), "a", (1.5, 2)])
    def test_off_mesh_hotspot_rejected(self, make, hotspot):
        """An off-mesh hotspot is a WorkloadError naming the field, not a
        late ConfigError at inject (or, under array indexing, a silent
        wrap of (-1, 0) onto a real tile)."""
        cfg = SystemConfig(rows=4, cols=4)
        with pytest.raises(WorkloadError, match="hotspot"):
            make(cfg, TrafficPattern.HOTSPOT, 0.5, 10, hotspot=hotspot)

    @pytest.mark.parametrize("make", [traffic_schedule, generate_traffic])
    @pytest.mark.parametrize("cycles", [2.5, "10", None, True])
    def test_non_integer_cycles_rejected(self, make, cycles):
        cfg = SystemConfig(rows=4, cols=4)
        with pytest.raises(WorkloadError, match="cycles"):
            make(cfg, TrafficPattern.UNIFORM, 0.1, cycles)

    def test_numpy_integer_cycles_accepted(self):
        cfg = SystemConfig(rows=4, cols=4)
        schedule = traffic_schedule(cfg, TrafficPattern.UNIFORM, 0.5, np.int64(3))
        assert set(schedule.cycle.tolist()) <= {0, 1, 2}


def _per_tile_schedule(config, pattern, rate, cycles, rng, hotspot=None):
    """The per-tile scalar loop ``traffic_schedule`` replaced (the oracle)."""
    out = []
    coords = list(config.tile_coords())
    for cycle in range(cycles):
        draws = rng.random(len(coords))
        for coord, draw in zip(coords, draws):
            if draw >= rate:
                continue
            dst = destination_for(coord, pattern, config, rng, hotspot)
            if dst == coord:
                continue
            out.append((cycle, coord, dst))
    return out


class TestTrafficScheduleOracle:
    """The array schedule is bit-identical to the per-tile scalar loop."""

    @pytest.mark.parametrize("rows,cols", [(32, 32), (5, 7), (1, 9)])
    @pytest.mark.parametrize("pattern", list(TrafficPattern))
    @pytest.mark.parametrize("rate", [0.0, 0.05, 0.3, 1.0])
    def test_matches_per_tile_loop(self, rows, cols, pattern, rate):
        cfg = SystemConfig(rows=rows, cols=cols)
        for hotspot in (None, (rows - 1, 0)):
            want_rng = np.random.default_rng(17)
            want = _per_tile_schedule(cfg, pattern, rate, 6, want_rng, hotspot)

            got_rng = np.random.default_rng(17)
            schedule = traffic_schedule(cfg, pattern, rate, 6, seed=got_rng, hotspot=hotspot)
            got = [
                (cycle, divmod(src, cols), divmod(dst, cols))
                for cycle, src, dst in zip(*(a.tolist() for a in schedule))
            ]
            assert got == want
            # Same stream position afterwards: the vectorised draws
            # consumed exactly what the scalar loop did.
            assert got_rng.random() == want_rng.random()

            traffic = generate_traffic(cfg, pattern, rate, 6, seed=17, hotspot=hotspot)
            assert [(c, p.src, p.dst) for c, p in traffic] == want
            ids = [p.packet_id for _, p in traffic]
            assert all(a < b for a, b in zip(ids, ids[1:]))
