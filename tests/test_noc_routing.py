"""Tests for repro.noc routing, topology, faults and dual networks."""

import itertools

import numpy as np
import pytest
from hypothesis import given

from repro.config import SystemConfig
from repro.errors import ConfigError, FaultMapError, NetworkError, RoutingError
from repro.noc.dualnetwork import DualNetwork, NetworkId, response_retraces_request
from repro.noc.faults import FaultMap, bonding_informed_fault_map, random_fault_map
from repro.noc.kernel import _find_detour_reference
from repro.noc.router import Port
from repro.noc.routing import (
    PORT_LOCAL,
    RoutingPolicy,
    build_port_lut,
    dor_path,
    dor_port_code,
    next_hop,
    path_is_clear,
    route,
    xy_path,
    yx_path,
)
from repro.noc.topology import MeshTopology
from repro.verify.strategies import coords8


class TestDorPaths:
    def test_xy_routes_row_first(self):
        path = xy_path((1, 1), (3, 4))
        assert path[0] == (1, 1)
        assert path[1] == (1, 2)            # column correction first
        assert path[-1] == (3, 4)

    def test_yx_routes_column_first(self):
        path = yx_path((1, 1), (3, 4))
        assert path[1] == (2, 1)            # row correction first
        assert path[-1] == (3, 4)

    def test_self_path_is_singleton(self):
        assert xy_path((2, 2), (2, 2)) == [(2, 2)]
        assert yx_path((2, 2), (2, 2)) == [(2, 2)]

    def test_path_length_is_manhattan(self):
        src, dst = (0, 0), (5, 3)
        assert len(xy_path(src, dst)) == 1 + 5 + 3
        assert len(yx_path(src, dst)) == 1 + 5 + 3

    @given(src=coords8, dst=coords8)
    def test_paths_are_valid_walks(self, src, dst):
        for path in (xy_path(src, dst), yx_path(src, dst)):
            assert path[0] == src and path[-1] == dst
            for a, b in zip(path, path[1:]):
                assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1

    @given(src=coords8, dst=coords8)
    def test_xy_yx_disjoint_iff_off_row_column(self, src, dst):
        # Fig. 7: the two dimension orders give two physically disjoint
        # paths exactly when the pair shares neither a row nor a column;
        # otherwise both walk the one straight segment.
        xy, yx = xy_path(src, dst), yx_path(src, dst)
        if src[0] == dst[0] or src[1] == dst[1]:
            assert xy == yx
        else:
            assert set(xy[1:-1]).isdisjoint(yx[1:-1])

    @given(src=coords8, dst=coords8)
    def test_next_hop_follows_path(self, src, dst):
        if src == dst:
            with pytest.raises(RoutingError):
                next_hop(src, dst, RoutingPolicy.XY)
            return
        for policy in RoutingPolicy:
            path = dor_path(src, dst, policy)
            current = src
            for expected in path[1:]:
                current = next_hop(current, dst, policy)
                assert current == expected

    def test_route_checks_faults(self, small_cfg):
        fmap = FaultMap(small_cfg, frozenset({(0, 3)}))
        # X-Y from (0,0) to (3,7) runs along row 0 first: blocked.
        with pytest.raises(RoutingError):
            route((0, 0), (3, 7), RoutingPolicy.XY, fmap)
        # Y-X goes down column 0 then along row 3: clear.
        path = route((0, 0), (3, 7), RoutingPolicy.YX, fmap)
        assert (0, 3) not in path
        assert path_is_clear(path, fmap)


class TestPortLut:
    """The precomputed DoR port table agrees with the incremental
    next_hop decision and with its scalar twin ``dor_port_code``."""

    @pytest.mark.parametrize("policy", list(RoutingPolicy))
    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 5), (4, 4), (3, 7)])
    def test_lut_matches_next_hop(self, rows, cols, policy):
        lut = build_port_lut(rows, cols, policy)
        port_order = list(Port)
        for cur in range(rows * cols):
            cr, cc = divmod(cur, cols)
            for dst in range(rows * cols):
                dr, dc = divmod(dst, cols)
                code = int(lut[cur, dst])
                assert code == dor_port_code(cr, cc, dr, dc, policy)
                if cur == dst:
                    assert code == PORT_LOCAL
                    continue
                hop = next_hop((cr, cc), (dr, dc), policy)
                # Port codes are list(Port) indices by construction.
                assert port_order[code].value in {
                    "north", "south", "west", "east"
                }
                step = {
                    0: (-1, 0), 1: (1, 0), 2: (0, -1), 3: (0, 1)
                }[code]
                assert (cr + step[0], cc + step[1]) == hop

    def test_bad_dimensions_rejected(self):
        with pytest.raises(RoutingError):
            build_port_lut(0, 4, RoutingPolicy.XY)


class TestTopology:
    def test_link_count(self, small_cfg):
        topo = MeshTopology(small_cfg)
        assert topo.link_count() == 2 * 8 * 7
        assert len(topo.links()) == topo.link_count()

    def test_neighbors(self, small_cfg):
        topo = MeshTopology(small_cfg)
        assert topo.are_neighbors((0, 0), (0, 1))
        assert not topo.are_neighbors((0, 0), (1, 1))

    def test_table1_network_bandwidth(self, paper_cfg):
        topo = MeshTopology(paper_cfg)
        assert topo.aggregate_bandwidth_bytes_per_s() / 1e12 == pytest.approx(
            9.83, abs=0.01
        )

    def test_link_bandwidth(self, paper_cfg):
        topo = MeshTopology(paper_cfg)
        assert topo.link_bandwidth_bps() == pytest.approx(400 * 300e6)

    def test_bus_bandwidth_quarter_of_link(self, paper_cfg):
        topo = MeshTopology(paper_cfg)
        assert topo.bus_bandwidth_bps() == pytest.approx(
            topo.link_bandwidth_bps() / 4
        )

    def test_bisection(self, paper_cfg):
        topo = MeshTopology(paper_cfg)
        assert topo.bisection_bandwidth_bps() == pytest.approx(
            32 * 400 * 300e6
        )

    def test_networkx_export_excludes_faulty(self, small_cfg):
        topo = MeshTopology(small_cfg)
        graph = topo.to_networkx(faulty={(0, 0)})
        assert (0, 0) not in graph
        assert graph.number_of_nodes() == 63


class TestFaultMap:
    def test_empty_map(self, small_cfg):
        fmap = FaultMap(small_cfg)
        assert fmap.fault_count == 0
        assert fmap.healthy_count == 64

    def test_out_of_bounds_fault_rejected(self, small_cfg):
        with pytest.raises(FaultMapError):
            FaultMap(small_cfg, frozenset({(9, 9)}))

    def test_with_fault(self, small_cfg):
        fmap = FaultMap(small_cfg).with_fault((1, 1))
        assert fmap.is_faulty((1, 1))
        assert fmap.fault_count == 1

    def test_faulty_flat_indices(self, small_cfg):
        fmap = FaultMap(small_cfg, frozenset({(0, 1), (2, 3), (7, 7)}))
        assert fmap.faulty_flat_indices() == [1, 2 * 8 + 3, 7 * 8 + 7]

    def test_bool_array_roundtrip(self, small_cfg):
        fmap = random_fault_map(small_cfg, 5, rng=0)
        again = FaultMap.from_bool_array(small_cfg, fmap.as_bool_array())
        assert again.faulty == fmap.faulty

    def test_random_map_exact_count(self, small_cfg):
        for count in (0, 1, 5, 20):
            assert random_fault_map(small_cfg, count, rng=1).fault_count == count

    def test_random_map_rejects_overflow(self, small_cfg):
        with pytest.raises(FaultMapError):
            random_fault_map(small_cfg, 65)

    def test_bonding_informed_map_mostly_clean(self, paper_cfg):
        # With dual pillars, expected faulty ~0.04/wafer of compute
        # chiplets: a random wafer is almost always fault-free.
        fmap = bonding_informed_fault_map(paper_cfg, rng=0)
        assert fmap.fault_count <= 3

    def test_bonding_informed_single_pillar_many_faults(self, paper_cfg):
        fmap = bonding_informed_fault_map(paper_cfg, rng=0, pillars_per_pad=1)
        # ~30% of tiles should fail (either chiplet's bond failing).
        assert fmap.fault_count > 150


class TestDualNetwork:
    def test_complement(self):
        assert NetworkId.XY.complement is NetworkId.YX
        assert NetworkId.YX.complement is NetworkId.XY

    def test_policy_mapping(self):
        assert NetworkId.XY.policy is RoutingPolicy.XY
        assert NetworkId.YX.policy is RoutingPolicy.YX

    @given(src=coords8, dst=coords8)
    def test_response_retraces_request(self, src, dst):
        """The Fig. 7 property, for both networks."""
        for net in NetworkId:
            assert response_retraces_request(src, dst, net)

    def test_round_trip_on_clean_map(self, clean_map):
        dual = DualNetwork(clean_map)
        assert dual.round_trip_ok((0, 0), (7, 7), NetworkId.XY)
        assert dual.usable_networks((0, 0), (7, 7)) == list(NetworkId)

    def test_fault_blocks_one_network(self, small_cfg):
        # Fault on the X-Y path (row 0) but not the Y-X path.
        fmap = FaultMap(small_cfg, frozenset({(0, 4)}))
        dual = DualNetwork(fmap)
        assert not dual.round_trip_ok((0, 0), (3, 7), NetworkId.XY)
        assert dual.round_trip_ok((0, 0), (3, 7), NetworkId.YX)
        assert dual.connected((0, 0), (3, 7))

    def test_same_row_pair_fully_blocked(self, small_cfg):
        fmap = FaultMap(small_cfg, frozenset({(0, 4)}))
        dual = DualNetwork(fmap)
        # Both Ls of a same-row pair run through the faulty column segment.
        assert not dual.connected((0, 0), (0, 7))
        with pytest.raises(RoutingError):
            dual.pick_network((0, 0), (0, 7))

    def test_pick_network_returns_usable(self, clean_map):
        dual = DualNetwork(clean_map)
        assert dual.pick_network((1, 1), (5, 5)) in NetworkId


def _walked_round_trip(fmap, src, dst, network):
    """Oracle: walk the request path and the response path tile by tile."""
    return path_is_clear(dor_path(src, dst, network.policy), fmap) and path_is_clear(
        dor_path(dst, src, network.complement.policy), fmap
    )


def _maps_up_to_two_faults(rows, cols):
    cfg = SystemConfig(rows=rows, cols=cols)
    coords = list(cfg.tile_coords())
    for k in (0, 1, 2):
        for faulty in itertools.combinations(coords, k):
            yield FaultMap(cfg, frozenset(faulty))


class TestRoundTripOracle:
    """``round_trip_ok`` reads segment tables; the oracle walks paths."""

    @staticmethod
    def _assert_agrees(fmap, pairs):
        dual = DualNetwork(fmap)
        for src, dst in pairs:
            want = [n for n in NetworkId if _walked_round_trip(fmap, src, dst, n)]
            for n in NetworkId:
                assert dual.round_trip_ok(src, dst, n) == (n in want), (
                    fmap.faulty, src, dst, n,
                )
            assert dual.usable_networks(src, dst) == want
            assert dual.connected(src, dst) == bool(want)

    @pytest.mark.parametrize("rows, cols", [(3, 3), (4, 4)])
    def test_every_map_with_up_to_two_faults(self, rows, cols):
        maps = 0
        for fmap in _maps_up_to_two_faults(rows, cols):
            coords = list(fmap.config.tile_coords())
            self._assert_agrees(fmap, itertools.product(coords, coords))
            maps += 1
        n = rows * cols
        assert maps == 1 + n + n * (n - 1) // 2

    @pytest.mark.parametrize(
        "rows, cols, faults, seed",
        [(1, 8, 2, 0), (1, 8, 3, 1), (5, 7, 4, 2), (5, 7, 9, 3)],
    )
    def test_random_maps_all_pairs(self, rows, cols, faults, seed):
        fmap = random_fault_map(SystemConfig(rows=rows, cols=cols), faults, rng=seed)
        coords = list(fmap.config.tile_coords())
        self._assert_agrees(fmap, itertools.product(coords, coords))

    @pytest.mark.parametrize("faults, seed", [(5, 0), (20, 1)])
    def test_full_wafer_sampled_pairs(self, paper_cfg, faults, seed):
        fmap = random_fault_map(paper_cfg, faults, rng=seed)
        rng = np.random.default_rng(seed)
        flat = rng.integers(paper_cfg.tiles, size=(1500, 2))
        pairs = [
            (divmod(int(a), paper_cfg.cols), divmod(int(b), paper_cfg.cols))
            for a, b in flat
        ]
        # Pairs touching a fault's row or column, where blockage happens.
        for r, c in sorted(fmap.faulty):
            pairs += [((r, 0), (r, paper_cfg.cols - 1)), ((0, c), (paper_cfg.rows - 1, c))]
        self._assert_agrees(fmap, pairs)

    @pytest.mark.parametrize("bad", [(-1, 0), (0, -1), (4, 0), (0, 4), (4, 4)])
    def test_off_mesh_endpoint_raises(self, bad):
        dual = DualNetwork(FaultMap(SystemConfig(rows=4, cols=4)))
        for network in NetworkId:
            with pytest.raises(ConfigError):
                dual.round_trip_ok(bad, (1, 1), network)
            with pytest.raises(ConfigError):
                dual.round_trip_ok((1, 1), bad, network)
        with pytest.raises(ConfigError):
            dual.connected((0, 0), bad)

    def test_detour_oracle_walks_paths_itself(self, monkeypatch):
        # The detour oracle must not read the segment tables it checks.
        fmap = FaultMap(SystemConfig(rows=4, cols=4), frozenset({(1, 1), (2, 2)}))
        want = _find_detour_reference(fmap, (1, 0), (1, 2))

        def forbidden(*args, **kwargs):
            raise AssertionError("detour oracle read DualNetwork")

        monkeypatch.setattr(DualNetwork, "round_trip_ok", forbidden)
        monkeypatch.setattr(DualNetwork, "connected", forbidden)
        assert _find_detour_reference(fmap, (1, 0), (1, 2)) == want
        assert want is not None
