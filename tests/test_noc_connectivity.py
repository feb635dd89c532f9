"""Tests for the Fig. 6 connectivity engine and the kernel router."""

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.noc.connectivity import (
    _shared_table,
    disconnected_fraction,
    monte_carlo_disconnection,
    same_row_col_share,
)
from repro.noc.dualnetwork import NetworkId
from repro.noc.faults import FaultMap, random_fault_map
from repro.noc.kernel import KernelRouter, NetworkAssignment, _find_detour_reference
from repro.noc.routing import path_is_clear, xy_path, yx_path


class TestExactDisconnection:
    def test_no_faults_no_disconnection(self, small_cfg):
        result = disconnected_fraction(FaultMap(small_cfg))
        assert result.single == 0.0
        assert result.dual == 0.0

    def test_dual_never_worse_than_single(self, small_cfg):
        for seed in range(10):
            fmap = random_fault_map(small_cfg, 4, rng=seed)
            result = disconnected_fraction(fmap)
            assert result.dual <= result.single
            assert result.one_way_xy <= result.single

    def test_matches_brute_force_path_walks(self, small_cfg):
        """Vectorised fault geometry == literal path enumeration."""
        fmap = random_fault_map(small_cfg, 5, rng=42)
        healthy = fmap.healthy_tiles()
        pairs = blocked_single = blocked_dual = 0
        for src in healthy:
            for dst in healthy:
                if src == dst:
                    continue
                pairs += 1
                fwd = path_is_clear(xy_path(src, dst), fmap)
                rsp = path_is_clear(xy_path(dst, src), fmap)
                if not (fwd and rsp):
                    blocked_single += 1
                if not fwd and not rsp:
                    blocked_dual += 1
        result = disconnected_fraction(fmap)
        assert result.single == pytest.approx(blocked_single / pairs)
        assert result.dual == pytest.approx(blocked_dual / pairs)

    def test_other_l_is_yx_path(self, small_cfg):
        """The X-Y path B->A covers the same tiles as the Y-X path A->B."""
        fmap = random_fault_map(small_cfg, 6, rng=7)
        for src in [(0, 0), (2, 5), (7, 1)]:
            for dst in [(4, 4), (6, 2)]:
                assert set(xy_path(dst, src)) == set(yx_path(src, dst))

    def test_single_fault_disconnects_some_pairs(self, small_cfg):
        fmap = FaultMap(small_cfg, frozenset({(4, 4)}))
        result = disconnected_fraction(fmap)
        assert result.single > 0.0
        # A single interior fault only kills pairs sharing its row AND
        # column structure on both Ls — rare but nonzero (row/col pairs).
        assert result.dual > 0.0

    def test_dual_improvement_large(self, small_cfg):
        fmap = random_fault_map(small_cfg, 3, rng=11)
        result = disconnected_fraction(fmap)
        if result.dual > 0:
            assert result.dual_improvement > 3.0


class TestFig6MonteCarlo:
    """The headline Fig. 6 reproduction on the full 32x32 wafer."""

    @pytest.fixture(scope="class")
    def stats(self):
        return monte_carlo_disconnection(
            SystemConfig(), fault_counts=[1, 3, 5, 10], trials=15, seed=1
        )

    def test_five_faults_single_exceeds_12pct(self, stats):
        at5 = next(s for s in stats if s.fault_count == 5)
        assert at5.mean_single_pct > 12.0

    def test_five_faults_dual_below_2pct(self, stats):
        at5 = next(s for s in stats if s.fault_count == 5)
        assert at5.mean_dual_pct < 2.0

    def test_monotone_in_fault_count(self, stats):
        singles = [s.mean_single_pct for s in stats]
        duals = [s.mean_dual_pct for s in stats]
        assert singles == sorted(singles)
        assert duals == sorted(duals)

    def test_dual_always_below_single(self, stats):
        for s in stats:
            assert s.mean_dual_pct < s.mean_single_pct

    def test_improvement_shrinks_with_faults(self, stats):
        improvements = [s.improvement for s in stats]
        assert improvements[0] > improvements[-1]


class TestResidualDisconnections:
    def test_mostly_same_row_column(self):
        """Paper: residual dual-network losses are mostly row/column pairs.

        The claim holds at low fault *density* (5 faults in 2048 chiplets):
        off-row/column pairs need two independent faults to lose both Ls,
        which is rare when faults are sparse.  A 16x16 grid with 2 faults
        matches the paper's density regime while staying fast to test.
        """
        import numpy as np

        cfg = SystemConfig(rows=16, cols=16)
        shares = []
        for seed in range(8):
            fmap = random_fault_map(cfg, 2, rng=seed)
            if disconnected_fraction(fmap).dual > 0:
                shares.append(same_row_col_share(fmap))
        assert shares, "expected at least one map with residual losses"
        assert np.mean(shares) > 0.5


class TestKernelRouter:
    def test_balanced_assignment_on_clean_map(self, clean_map):
        kernel = KernelRouter(clean_map)
        report = kernel.assign_all_pairs()
        assert report.unreachable_pairs == 0
        assert report.balance > 0.9

    def test_assignment_stable(self, clean_map):
        kernel = KernelRouter(clean_map)
        first = kernel.assign((0, 0), (5, 5))
        second = kernel.assign((0, 0), (5, 5))
        assert first is second

    def test_single_path_pair_gets_that_network(self, small_cfg):
        fmap = FaultMap(small_cfg, frozenset({(0, 4)}))
        kernel = KernelRouter(fmap)
        assignment = kernel.assign((0, 0), (3, 7))
        assert assignment.network is NetworkId.YX

    def test_detour_found_for_blocked_row_pair(self, small_cfg):
        fmap = FaultMap(small_cfg, frozenset({(0, 4)}))
        kernel = KernelRouter(fmap)
        assignment = kernel.assign((0, 0), (0, 7), allow_detour=True)
        assert assignment.is_detour
        via = assignment.detour_via
        assert via is not None and via[0] != 0      # leaves the blocked row

    def test_no_detour_when_disallowed(self, small_cfg):
        fmap = FaultMap(small_cfg, frozenset({(0, 4)}))
        kernel = KernelRouter(fmap)
        assignment = kernel.assign((0, 0), (0, 7), allow_detour=False)
        assert not assignment.reachable

    def test_faulty_endpoint_unreachable(self, small_cfg):
        fmap = FaultMap(small_cfg, frozenset({(3, 3)}))
        kernel = KernelRouter(fmap)
        assert not kernel.assign((0, 0), (3, 3)).reachable

    def test_all_pairs_with_detours_on_faulty_map(self, tiny_cfg):
        fmap = FaultMap(tiny_cfg, frozenset({(0, 2)}))
        kernel = KernelRouter(fmap)
        report = kernel.assign_all_pairs(allow_detour=True)
        assert report.unreachable_pairs == 0
        assert report.total_pairs == 15 * 14

    def test_answer_independent_of_call_history(self, small_cfg):
        """The cache holds network decisions only, never a detour choice."""
        fmap = FaultMap(small_cfg, frozenset({(0, 4)}))
        blocked, direct = ((0, 0), (0, 7)), ((0, 0), (5, 5))
        fresh = KernelRouter(fmap)
        want_detour = fresh.assign(*blocked, allow_detour=True)
        want_direct = fresh.assign(*direct)
        assert want_detour.detour_via == (1, 0)
        unreachable = NetworkAssignment(*blocked, None, reachable=False)
        for order in ((False, True), (True, False)):
            kernel = KernelRouter(fmap)
            for allow in order:
                got = kernel.assign(*blocked, allow_detour=allow)
                assert got == (want_detour if allow else unreachable)
                assert kernel.assign(*direct, allow_detour=allow) == want_direct
            assert kernel.network_load == fresh.network_load


#: (id, rows, cols, faults, {pair: expected via}) — each named shape is
#: a corner of the tie rule or of reachability; the seeded maps (faults
#: given as ``(seed, count)``) sweep the general case, and the two
#: full-wafer maps keep the paper-size code paths under the oracle: the
#: row-0 fault behind the all-to-all compile pathology and a 10-fault
#: map like the emulator bench's.
DETOUR_CASES = [
    ("row-0-fault", 8, 8, {(0, 4)}, {((0, 0), (0, 7)): (1, 0)}),
    ("1xN", 1, 7, {(0, 3)}, {((0, 0), (0, 6)): None}),
    ("Nx1", 7, 1, {(3, 0)}, {((0, 0), (6, 0)): None}),
    ("no-candidate", 2, 5, {(0, 2), (1, 2)}, {((0, 0), (1, 4)): None}),
    # Every healthy tile of the 3x3 ring detours (0,1)->(2,1) at cost 4;
    # the earliest row-major one wins.
    ("tie", 3, 3, {(1, 1)}, {((0, 1), (2, 1)): (0, 0)}),
    ("isolated-tile", 5, 5, {(0, 1), (1, 0), (3, 3)}, {((0, 0), (4, 4)): None}),
] + [
    (f"seed-{seed}", 6 + seed % 3, 5 + seed % 4, (seed, 4), {})
    for seed in range(8)
] + [
    ("32x32-row-0-fault", 32, 32, {(0, 7)}, {}),
    ("32x32-seed-1", 32, 32, (1, 10), {}),
]

#: Maps with more tiles check a fixed sample of pairs instead of all of
#: them: the scalar oracle costs ~0.1 s per blocked pair at 32x32.
FULL_SCAN_TILES = 100
ORACLE_SAMPLE = 6


def _detour_case_map(rows, cols, faults) -> FaultMap:
    cfg = SystemConfig(rows=rows, cols=cols)
    if isinstance(faults, tuple):
        seed, count = faults
        return random_fault_map(cfg, count, rng=seed)
    return FaultMap(cfg, frozenset(faults))


def _case_pairs(table) -> list[tuple[int, int]]:
    """Healthy ordered pairs (flat ids) a case checks.

    Every pair on a small map; on a larger one, ``ORACLE_SAMPLE`` of the
    table's blocked pairs plus 64 pairs drawn from all healthy ones,
    from a fixed seed.
    """
    healthy = np.flatnonzero(table.healthy)
    if healthy.size <= FULL_SCAN_TILES:
        src, dst = (a.ravel() for a in np.meshgrid(healthy, healthy, indexing="ij"))
    else:
        rng = np.random.default_rng(0)
        both = np.outer(table.healthy, table.healthy)
        blocked = rng.choice(
            np.flatnonzero(~table.direct & both), ORACLE_SAMPLE, replace=False
        )
        src = np.concatenate([blocked // table.n, rng.choice(healthy, 64)])
        dst = np.concatenate([blocked % table.n, rng.choice(healthy, 64)])
    return [(s, d) for s, d in zip(src.tolist(), dst.tolist()) if s != d]


class TestDetourTableVsOracle:
    """The shared route table's detour search against the scalar loop."""

    @pytest.mark.parametrize(
        "rows,cols,faults,expected",
        [case[1:] for case in DETOUR_CASES],
        ids=[case[0] for case in DETOUR_CASES],
    )
    def test_every_blocked_pair_matches_oracle(self, rows, cols, faults, expected):
        fmap = _detour_case_map(rows, cols, faults)
        kernel = KernelRouter(fmap)
        dual = kernel.dual
        table = _shared_table(fmap)
        blocked = 0
        for s, d in _case_pairs(table):
            src, dst = divmod(s, cols), divmod(d, cols)
            assert table.direct[s, d] == dual.connected(src, dst)
            if table.direct[s, d]:
                continue
            blocked += 1
            want = _find_detour_reference(fmap, src, dst)
            via, hops = table.detour(s * table.n + d)
            got = None if via is None else divmod(via, cols)
            assert got == want, (src, dst)
            assert kernel.find_detour(src, dst) == want
            if want is None:
                assert hops == 0
                continue
            assert hops == (
                abs(want[0] - src[0]) + abs(want[1] - src[1])
                + abs(dst[0] - want[0]) + abs(dst[1] - want[1])
            )
            # Both legs must complete on some network.
            assert dual.connected(src, want)
            assert dual.connected(want, dst)
        assert blocked > 0
        for (src, dst), via in expected.items():
            assert kernel.find_detour(src, dst) == via

    def test_tie_case_really_ties(self):
        fmap = _detour_case_map(3, 3, {(1, 1)})
        dual = KernelRouter(fmap).dual
        src, dst = (0, 1), (2, 1)
        costs = {
            via: abs(via[0] - src[0]) + abs(via[1] - src[1])
            + abs(dst[0] - via[0]) + abs(dst[1] - via[1])
            for via in fmap.healthy_tiles()
            if via not in (src, dst)
            and dual.connected(src, via) and dual.connected(via, dst)
        }
        best = min(costs.values())
        assert sum(cost == best for cost in costs.values()) > 1

    @pytest.mark.parametrize("src,dst", [((0, 0), (8, 0)), ((-1, 0), (0, 0))])
    def test_off_grid_raises_before_table(self, small_cfg, monkeypatch, src, dst):
        def table_touched(fault_map):
            raise AssertionError("route table built for an off-grid pair")

        monkeypatch.setattr("repro.noc.kernel._shared_table", table_touched)
        kernel = KernelRouter(FaultMap(small_cfg, frozenset({(0, 4)})))
        with pytest.raises(ConfigError):
            kernel.find_detour(src, dst)
        with pytest.raises(ConfigError):
            kernel.assign(src, dst, allow_detour=True)

    def test_clean_map_builds_no_table(self, clean_map, monkeypatch):
        def table_touched(fault_map):
            raise AssertionError("route table built without a blocked pair")

        monkeypatch.setattr("repro.noc.kernel._shared_table", table_touched)
        report = KernelRouter(clean_map).assign_all_pairs(allow_detour=True)
        assert report.detoured_pairs == report.unreachable_pairs == 0
