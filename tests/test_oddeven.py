"""Tests for odd-even turn-model adaptive routing (future work, ref [18])."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.errors import RoutingError
from repro.noc.connectivity import disconnected_fraction
from repro.noc.faults import FaultMap, random_fault_map
from repro.noc.oddeven import (
    EAST,
    NORTH,
    SOUTH,
    WEST,
    _turn_allowed,
    compare_routing_schemes,
    odd_even_connectivity,
    odd_even_path,
    path_respects_turn_model,
)


class TestTurnRules:
    def test_injection_always_allowed(self):
        for direction in (EAST, WEST, NORTH, SOUTH):
            assert _turn_allowed(None, direction, (3, 4))

    def test_straight_always_allowed(self):
        for direction in (EAST, WEST, NORTH, SOUTH):
            assert _turn_allowed(direction, direction, (2, 2))
            assert _turn_allowed(direction, direction, (2, 3))

    def test_u_turns_never_allowed(self):
        assert not _turn_allowed(EAST, WEST, (0, 0))
        assert not _turn_allowed(NORTH, SOUTH, (1, 1))

    def test_rule1_en_even_columns(self):
        assert not _turn_allowed(EAST, NORTH, (3, 4))   # even column
        assert _turn_allowed(EAST, NORTH, (3, 5))       # odd column

    def test_rule1_nw_odd_columns(self):
        assert not _turn_allowed(NORTH, WEST, (3, 5))
        assert _turn_allowed(NORTH, WEST, (3, 4))

    def test_rule2_es_even_columns(self):
        assert not _turn_allowed(EAST, SOUTH, (3, 4))
        assert _turn_allowed(EAST, SOUTH, (3, 5))

    def test_rule2_sw_odd_columns(self):
        assert not _turn_allowed(SOUTH, WEST, (3, 5))
        assert _turn_allowed(SOUTH, WEST, (3, 4))

    def test_west_turns_unrestricted_by_rules(self):
        # WN / WS turns are never restricted by odd-even.
        for col in (4, 5):
            assert _turn_allowed(WEST, NORTH, (3, col))
            assert _turn_allowed(WEST, SOUTH, (3, col))


class TestPaths:
    def test_clean_grid_all_pairs_routable(self, small_cfg):
        fmap = FaultMap(small_cfg)
        for src in [(0, 0), (7, 0), (3, 4)]:
            for dst in small_cfg.tile_coords():
                if src == dst:
                    continue
                path = odd_even_path(src, dst, fmap)
                assert path is not None
                assert path[0] == src and path[-1] == dst
                assert path_respects_turn_model(path)

    def test_faulty_endpoint_unroutable(self, small_cfg):
        fmap = FaultMap(small_cfg, frozenset({(3, 3)}))
        assert odd_even_path((0, 0), (3, 3), fmap) is None
        assert odd_even_path((3, 3), (0, 0), fmap) is None

    def test_routes_around_fault_wall(self, small_cfg):
        # A fault pattern that kills both DoR paths of a same-row pair,
        # but not adaptive routing.
        fmap = FaultMap(small_cfg, frozenset({(0, 4), (1, 4)}))
        dor = disconnected_fraction(fmap)
        path = odd_even_path((0, 0), (0, 7), fmap)
        assert path is not None
        assert path_respects_turn_model(path)
        assert all(not fmap.is_faulty(t) for t in path)
        # The route must duck below the two-deep wall.
        assert any(r >= 2 for r, _ in path)

    def test_path_avoids_faults_property(self):
        cfg = SystemConfig(rows=8, cols=8)
        for seed in range(10):
            fmap = random_fault_map(cfg, 6, rng=seed)
            healthy = fmap.healthy_tiles()
            src, dst = healthy[0], healthy[-1]
            path = odd_even_path(src, dst, fmap)
            if path is not None:
                assert path_respects_turn_model(path)
                assert all(not fmap.is_faulty(t) for t in path)

    def test_oracle_rejects_forbidden_turn(self):
        # East then north turns at column 4 (even): rule 1 forbids it;
        # the same turn one column later (odd) is legal.
        assert not path_respects_turn_model([(3, 3), (3, 4), (2, 4)])
        assert path_respects_turn_model([(3, 4), (3, 5), (2, 5)])

    def test_oracle_rejects_non_unit_steps(self):
        with pytest.raises(RoutingError, match="non-unit step"):
            path_respects_turn_model([(0, 0), (1, 1)])
        with pytest.raises(RoutingError, match="non-unit step"):
            path_respects_turn_model([(0, 0), (0, 2)])

    def test_trivial_paths_are_legal(self):
        assert path_respects_turn_model([])
        assert path_respects_turn_model([(2, 2)])

    @given(
        src=st.tuples(st.integers(0, 5), st.integers(0, 5)),
        dst=st.tuples(st.integers(0, 5), st.integers(0, 5)),
    )
    @settings(max_examples=40, deadline=None)
    def test_clean_paths_near_minimal(self, src, dst):
        """On a fault-free mesh, odd-even routes are at most slightly
        longer than Manhattan (the turn rules cost at most ~2 hops)."""
        cfg = SystemConfig(rows=6, cols=6)
        fmap = FaultMap(cfg)
        path = odd_even_path(src, dst, fmap)
        assert path is not None
        manhattan = abs(src[0] - dst[0]) + abs(src[1] - dst[1])
        assert len(path) - 1 <= manhattan + 4


class TestConnectivity:
    def test_clean_map_fully_connected(self, tiny_cfg):
        result = odd_even_connectivity(FaultMap(tiny_cfg))
        assert result.disconnected == 0

    def test_single_healthy_tile_has_no_pairs(self):
        cfg = SystemConfig(rows=2, cols=2)
        fmap = FaultMap(cfg, frozenset({(0, 1), (1, 0), (1, 1)}))
        result = odd_even_connectivity(fmap)
        assert (result.fault_count, result.healthy_pairs) == (3, 0)
        assert result.disconnected_fraction == 0.0

    def test_adaptive_beats_dual_dor(self):
        cfg = SystemConfig(rows=16, cols=16)
        comparison = compare_routing_schemes(cfg, [4], trials=5, seed=2)[0]
        assert comparison["odd_even_pct"] <= comparison["dual_dor_pct"]
        assert comparison["dual_dor_pct"] < comparison["single_dor_pct"]

    def test_only_graph_disconnection_defeats_adaptive(self, small_cfg):
        """Odd-even disconnection should track true graph disconnection
        closely: turn rules rarely cost connectivity beyond topology."""
        for seed in range(5):
            fmap = random_fault_map(small_cfg, 8, rng=seed)
            graph = nx.Graph()
            healthy = fmap.healthy_tiles()
            graph.add_nodes_from(healthy)
            for r, c in healthy:
                for nbr in ((r + 1, c), (r, c + 1)):
                    if nbr in set(healthy):
                        graph.add_edge((r, c), nbr)
            # Count ordered pairs disconnected in the plain graph.
            components = list(nx.connected_components(graph))
            n = len(healthy)
            connected_pairs = sum(len(comp) * (len(comp) - 1) for comp in components)
            graph_disconnected = n * (n - 1) - connected_pairs

            result = odd_even_connectivity(fmap)
            assert result.disconnected >= graph_disconnected
            # Turn rules cost some connectivity around dense fault
            # clusters (forbidden west-bound turns), but the overhead
            # stays a modest fraction of all pairs even at this high
            # fault density (8 faults in 64 tiles).
            assert (
                result.disconnected - graph_disconnected
            ) <= 0.15 * result.healthy_pairs
