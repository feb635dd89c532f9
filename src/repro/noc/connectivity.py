"""Source-destination disconnection analysis — the Fig. 6 engine.

For a fault map, a source-destination pair is *disconnected* on a network
when its dimension-ordered path crosses a faulty tile.  Fig. 6 plots, for
randomly generated fault maps, the average percentage of disconnected
pairs versus fault count for

* the conventional single X-Y DoR network, and
* the paper's two independent networks (X-Y plus Y-X), where a pair is
  disconnected only when *both* its paths are blocked.

The paper's headline point: at five faulty chiplets out of 2048, a single
network loses >12% of pairs while the dual network loses <2%.

Per fault map, :func:`disconnected_fraction` counts blocked pairs with
a factorized sparse contraction (:func:`_pair_blockage_sparse`): per
wafer geometry the coordinate grids are precomputed once
(:func:`_coord_grid`), per map two cumulative-sum tables give the
segment fault tables, and the pair counts contract over the faulty rows
only — **no loop over faults** and no million-entry pair matrix.
:func:`_pair_blockage_reference`, a per-fault broadcast loop, is the
oracle the differential tests compare it against bit for bit.

A fault at ``(fr, fc)`` blocks the X-Y pair ``(r1,c1)->(r2,c2)`` iff it
lies on the source-row segment or the destination-column segment; the
Y-X L from A to B covers the same tiles as the X-Y L from B to A, so the
second path's blockage matrix is the transpose of the first.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ..config import SystemConfig
from ..errors import NetworkError
from .faults import FaultMap, random_fault_map


@dataclass(frozen=True)
class PairDisconnection:
    """Disconnection fractions of one fault map.

    Communication between two tiles is request/response (Section VI), so a
    pair counts as connected only when the full round trip completes:

    * **single network** — request and response both ride the one X-Y
      network; the response's X-Y path from B to A is the *other* L of the
      rectangle, so the pair is disconnected when either L is blocked;
    * **dual network** — the response retraces the request's tiles on the
      complementary network (Fig. 7), so the pair is disconnected only
      when *both* Ls are blocked.
    """

    fault_count: int
    one_way_xy: float       # fraction of ordered pairs with the X-Y L blocked
    single: float           # round trip on a single X-Y network fails
    dual: float             # both Ls blocked: dual-network round trip fails
    healthy_pairs: int

    @property
    def dual_improvement(self) -> float:
        """How many times fewer pairs the dual scheme loses."""
        if self.dual == 0.0:
            return float("inf") if self.single > 0 else 1.0
        return self.single / self.dual


@lru_cache(maxsize=4)
def _segment_bounds(
    rows: int, cols: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Min/max segment-endpoint grids ``(cmin, cmax, rmin, rmax)``.

    ``cmin[a, b] = min(a, b)`` over column pairs, and likewise for the
    others; :func:`_segment_tables` gathers its cumulative sums at them.
    """
    col_a = np.arange(cols)[:, None]
    col_b = np.arange(cols)[None, :]
    row_a = np.arange(rows)[:, None]
    row_b = np.arange(rows)[None, :]
    return (
        np.minimum(col_a, col_b),
        np.maximum(col_a, col_b),
        np.minimum(row_a, row_b),
        np.maximum(row_a, row_b),
    )


@lru_cache(maxsize=4)
def _coord_grid(rows: int, cols: int) -> dict:
    """Per-geometry precompute shared by every fault map of one config.

    The X-Y L of ``(r1,c1)->(r2,c2)`` is blocked iff some fault sits in
    row ``r1`` with column in ``[min(c1,c2), max(c1,c2)]`` or in column
    ``c2`` with row in ``[min(r1,r2), max(r1,r2)]``.  Both conditions
    live in tiny per-map tables (:func:`_segment_tables`) — ``(rows,
    cols, cols)`` for row segments, ``(rows, rows, cols)`` for column
    segments — and expand to the full ordered-pair matrix by pure
    ``tile``/``repeat`` layout tricks, so the per-map work never loops
    over faults and never gathers with million-entry index arrays.
    Cached here: the destination coordinate vectors, and the
    same-row-or-column pair mask used by :func:`same_row_col_share`.
    """
    flat = np.arange(rows * cols)
    r, c = flat // cols, flat % cols
    return {
        "dst_r": r,                     # destination row per flat index
        "dst_c": c,                     # destination column per flat index
        "same_rc": (r[:, None] == r[None, :]) | (c[:, None] == c[None, :]),
    }


def _segment_tables(fault_arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-map segment fault tables from two cumulative-sum tables.

    ``tbl_row[r, a, b]``: any fault in row ``r``, columns
    ``[min(a,b), max(a,b)]``; ``tbl_col[a, b, c]``: any fault in column
    ``c``, rows ``[min(a,b), max(a,b)]``.  The X-Y L from ``(r1, c1)``
    to ``(r2, c2)`` (endpoints included) is blocked iff
    ``tbl_row[r1, c1, c2] or tbl_col[r1, r2, c2]``.
    """
    rows, cols = fault_arr.shape
    cmin, cmax, rmin, rmax = _segment_bounds(rows, cols)
    row_cum = np.zeros((rows, cols + 1), dtype=np.int16)
    np.cumsum(fault_arr, axis=1, dtype=np.int16, out=row_cum[:, 1:])
    col_cum = np.zeros((rows + 1, cols), dtype=np.int16)
    np.cumsum(fault_arr, axis=0, dtype=np.int16, out=col_cum[1:, :])
    tbl_row = row_cum[:, cmax + 1] > row_cum[:, cmin]
    tbl_col = col_cum[rmax + 1, :] > col_cum[rmin, :]
    return tbl_row, tbl_col


def _blockage_matrix(fault_map: FaultMap) -> tuple[np.ndarray, np.ndarray]:
    """Full-grid X-Y blocked-pair matrix and healthy-tile mask.

    Returns ``(xy_blocked, healthy)`` where ``xy_blocked[i, j]`` is True
    when the X-Y L from flat tile ``i`` to flat tile ``j`` crosses a
    fault (endpoints included — a pair with a faulty endpoint is always
    blocked, and a healthy diagonal entry never is) and ``healthy`` is
    the flat healthy-tile mask.  The Y-X blockage matrix is
    ``xy_blocked.T``.
    """
    cfg = fault_map.config
    rows, cols = cfg.rows, cfg.cols
    n = rows * cols
    grid = _coord_grid(rows, cols)
    fault_arr = fault_map.as_bool_array()
    tbl_row, tbl_col = _segment_tables(fault_arr)

    # Row-segment term: depends on (source tile, destination column), and
    # tbl_row reshaped to (n, cols) is already indexed by source flat id,
    # so the pair matrix is that block tiled across the destination rows.
    xy_blocked = np.tile(tbl_row.reshape(n, cols), (1, rows))
    # Column-segment term: depends on (source row, destination tile);
    # gather the (rows, n) block and repeat each row per source column.
    dst_block = tbl_col[:, grid["dst_r"], grid["dst_c"]]
    xy_blocked |= np.repeat(dst_block, cols, axis=0)
    return xy_blocked, ~fault_arr.reshape(-1)


class _RouteTable:
    """Per-fault-map round-trip reachability and the one detour search.

    ``direct[s, d]`` is True when the (s, d) round trip succeeds on at
    least one network without a detour: XY-L clearness of ``s -> d`` or
    of ``d -> s`` (request and response of the two networks traverse the
    same two Ls, so round-trip reachability collapses to the symmetric
    ``~(xy_blocked & xy_blocked.T)`` of :func:`_blockage_matrix`).
    Detours are searched lazily per blocked pair and memoised; the
    kernel (:meth:`~repro.noc.kernel.KernelRouter.find_detour`), the
    collective compiler and the vector emulator all read them from here.
    """

    def __init__(self, fault_map: FaultMap) -> None:
        config = fault_map.config
        self.rows = config.rows
        self.cols = config.cols
        self.n = config.rows * config.cols
        xy_blocked, healthy = _blockage_matrix(fault_map)
        self.healthy = healthy
        self.direct = ~(xy_blocked & xy_blocked.T)
        self.direct_flat = np.ascontiguousarray(self.direct).reshape(-1)
        ids = np.arange(self.n, dtype=np.int64)
        self._r = ids // self.cols
        self._c = ids % self.cols
        #: pair key (src * n + dst) -> (via, detour hops)
        self._detours: dict[int, tuple[int | None, int]] = {}

    def detour(self, key: int) -> tuple[int | None, int]:
        """Via tile (flat id) and two-leg hop count of a blocked pair.

        ``key`` is ``src * n + dst`` in flat row-major ids.  A pair with
        no candidate is unreachable: ``(None, 0)``.
        """
        hit = self._detours.get(key)
        if hit is None:
            hit = self._detours[key] = self._find_detour(key)
        return hit

    def _find_detour(self, key: int) -> tuple[int | None, int]:
        # Candidates are healthy tiles (excluding the endpoints) with a
        # round trip from src and one to dst.  Pick the minimal
        # src->via->dst Manhattan cost and, on ties, the earliest
        # row-major candidate (np.argmin's first-occurrence rule over
        # the row-major id axis).
        src, dst = divmod(key, self.n)
        ok = self.healthy & self.direct[src] & self.direct[:, dst]
        ok[src] = False
        ok[dst] = False
        if not ok.any():
            return None, 0
        r, c = self._r, self._c
        cost = (
            np.abs(r - r[src]) + np.abs(c - c[src])
            + np.abs(r[dst] - r) + np.abs(c[dst] - c)
        )
        cost = np.where(ok, cost, np.iinfo(np.int64).max)
        via = int(np.argmin(cost))
        return via, int(cost[via])


# Shared per-fault-map tables, LRU-bounded; emptied by
# arch.emulator.clear_route_cache.
_TABLE_CACHE: OrderedDict[FaultMap, _RouteTable] = OrderedDict()
_TABLE_CACHE_MAPS = 8


def _shared_table(fault_map: FaultMap) -> _RouteTable:
    """The shared route table for ``fault_map``."""
    table = _TABLE_CACHE.get(fault_map)
    if table is None:
        table = _TABLE_CACHE[fault_map] = _RouteTable(fault_map)
        while len(_TABLE_CACHE) > _TABLE_CACHE_MAPS:
            _TABLE_CACHE.popitem(last=False)
    else:
        _TABLE_CACHE.move_to_end(fault_map)
    return table


def _pair_blockage_sparse(fault_map: FaultMap) -> PairDisconnection:
    """Exact disconnection fractions via a factorized sparse contraction.

    Same integer counts as the pair-matrix oracle
    :func:`_pair_blockage_reference` — so bit-identical fractions —
    without ever materialising the million-entry pair matrices.  The
    blocked-pair counts are sums of products of the two small segment
    tables ``R[a, c, e]`` (fault in row ``a``, columns
    ``c..e``) and ``C[a, b, e]`` (fault in column ``e``, rows ``a..b``),
    and those sums factor:

    * one-way: ``|A or B| = n^2 - sum (1-R)(1-C)``, and the sum splits
      into a product of two ``(rows, cols)`` marginals;
    * dual (both Ls blocked): expands into a dense term driven by the
      ``C`` marginals plus corrections that all carry a factor of
      ``R`` — and ``R`` is nonzero only on rows that contain a fault,
      so the corrections contract over the ``k`` faulty rows instead of
      all ``rows`` (batched ``(k, 32, 32)`` matmuls; exact in float32
      because every entry is a 0/1 sum over at most ``cols`` terms).

    At Fig. 6 fault counts (a handful of faulty rows out of 32) this is
    tens of times faster than the reference loop per map; it degrades
    gracefully toward a dense contraction as faults approach full
    coverage.
    """
    cfg = fault_map.config
    rows, cols = cfg.rows, cfg.cols
    n = rows * cols
    fault_arr = fault_map.as_bool_array()
    h = n - int(fault_arr.sum())
    if h < 2:
        raise NetworkError("need at least two healthy tiles")
    R, C = _segment_tables(fault_arr)
    c_open = (~C).astype(np.float32)         # (a, b, e): column segment clear

    # one_way_full = n^2 - sum_{a,c,b,e} (1-R[a,c,e]) (1-C[a,b,e]).
    r_bar = cols - R.sum(axis=1, dtype=np.int64)            # (a, e)
    c_bar_ae = c_open.sum(axis=1).astype(np.int64)          # (a, e)
    unblocked = int((r_bar * c_bar_ae).sum())
    one_way_full = n * n - unblocked

    # dual_full = n^2 - 2*unblocked + Q with
    # Q = sum (1-R[a,c,e]) (1-C[a,b,e]) (1-R[b,c,e]) (1-C[a,b,c]).
    c_bar_ab = c_open.sum(axis=2).astype(np.int64)          # (a, b)
    q = int((c_bar_ab * c_bar_ab).sum())
    faulty_rows = np.nonzero(fault_arr.any(axis=1))[0]
    if faulty_rows.size:
        r_f = R[faulty_rows].astype(np.float32)             # (k, c, e)
        c_open_t = (~C).astype(np.int64)                    # (a, b, c)
        # sum_e (1-C[a,b,e]) R[a,c,e], nonzero only for faulty a.
        corr_a = np.matmul(c_open[faulty_rows], r_f.transpose(0, 2, 1))
        q -= int(
            np.einsum(
                "kbc,kbc->",
                corr_a.astype(np.int64),
                c_open_t[faulty_rows],
            )
        )
        # sum_e (1-C[a,b,e]) R[b,c,e], nonzero only for faulty b.
        corr_b = np.matmul(
            c_open[:, faulty_rows, :].transpose(1, 0, 2),
            r_f.transpose(0, 2, 1),
        )                                                    # (k, a, c)
        q -= int(
            np.einsum(
                "kac,kac->",
                corr_b.astype(np.int64),
                c_open_t[:, faulty_rows, :].transpose(1, 0, 2),
            )
        )
        # sum_e (1-C[a,b,e]) R[a,c,e] R[b,c,e], both endpoints faulty rows.
        r_fi = R[faulty_rows].astype(np.int64)               # (k, c, e)
        c_open_ff = c_open_t[np.ix_(faulty_rows, faulty_rows)]
        both = np.einsum("jce,kce,jke->jkc", r_fi, r_fi, c_open_ff)
        q += int(np.einsum("jkc,jkc->", both, c_open_ff))
    dual_full = n * n - 2 * unblocked + q

    f = n - h
    endpoint_pairs = f * (2 * n - f)
    one_way_count = one_way_full - endpoint_pairs
    dual_count = dual_full - endpoint_pairs
    # |A or B| = |A| + |B| - |A and B|, and |B| = |A| by symmetry.
    single_count = 2 * one_way_count - dual_count
    pair_count = h * (h - 1)
    return PairDisconnection(
        fault_count=fault_map.fault_count,
        one_way_xy=one_way_count / pair_count,
        single=single_count / pair_count,
        dual=dual_count / pair_count,
        healthy_pairs=pair_count,
    )


def _pair_blockage_reference(fault_map: FaultMap) -> PairDisconnection:
    """Per-fault broadcast loop over the healthy pair matrix (test oracle)."""
    cfg = fault_map.config
    rows, cols = cfg.rows, cfg.cols
    coords = np.array(
        [(r, c) for r in range(rows) for c in range(cols)], dtype=np.int32
    )
    healthy_mask = ~fault_map.as_bool_array().reshape(-1)
    healthy = coords[healthy_mask]
    n = len(healthy)
    if n < 2:
        raise NetworkError("need at least two healthy tiles")

    r1 = healthy[:, 0][:, None]     # (n, 1) source rows
    c1 = healthy[:, 1][:, None]
    r2 = healthy[:, 0][None, :]     # (1, n) destination rows
    c2 = healthy[:, 1][None, :]

    rmin, rmax = np.minimum(r1, r2), np.maximum(r1, r2)
    cmin, cmax = np.minimum(c1, c2), np.maximum(c1, c2)

    xy_blocked = np.zeros((n, n), dtype=bool)
    for fr, fc in fault_map.faulty:
        # X-Y: source-row segment (row r1, columns c1..c2) then
        # destination-column segment (column c2, rows r1..r2).
        xy_blocked |= (fr == r1) & (cmin <= fc) & (fc <= cmax)
        xy_blocked |= (fc == c2) & (rmin <= fr) & (fr <= rmax)

    # The Y-X L from A to B covers the same tiles as the X-Y L from B to
    # A, so the second path's blockage matrix is simply the transpose.
    other_l_blocked = xy_blocked.T

    off_diag = ~np.eye(n, dtype=bool)
    pair_count = int(off_diag.sum())
    one_way = float((xy_blocked & off_diag).sum()) / pair_count
    single = float(((xy_blocked | other_l_blocked) & off_diag).sum()) / pair_count
    dual = float(((xy_blocked & other_l_blocked) & off_diag).sum()) / pair_count
    return PairDisconnection(
        fault_count=fault_map.fault_count,
        one_way_xy=one_way,
        single=single,
        dual=dual,
        healthy_pairs=pair_count,
    )


def disconnected_fraction(fault_map: FaultMap) -> PairDisconnection:
    """Exact disconnection fractions for one fault map."""
    return _pair_blockage_sparse(fault_map)


@dataclass(frozen=True)
class ConnectivityStats:
    """Monte-Carlo averages for one fault count (one X position in Fig. 6)."""

    fault_count: int
    trials: int
    mean_single_pct: float
    mean_dual_pct: float
    std_single_pct: float
    std_dual_pct: float

    @property
    def improvement(self) -> float:
        """Average single-to-dual disconnection ratio."""
        if self.mean_dual_pct == 0.0:
            return float("inf") if self.mean_single_pct > 0 else 1.0
        return self.mean_single_pct / self.mean_dual_pct


def _disconnection_trial(ctx) -> tuple[float, float]:
    """One Fig. 6 trial: draw a fault map, measure both networks.

    Runs on the experiment engine (module-level so worker processes can
    pickle it); the trial's private rng makes the draw independent of
    worker count and dispatch order.
    """
    fault_count = ctx.params["fault_count"]
    fmap = random_fault_map(ctx.config, fault_count, ctx.rng)
    try:
        result = _pair_blockage_sparse(fmap)
    except NetworkError as err:
        raise NetworkError(
            f"degenerate fault map in Fig. 6 Monte Carlo "
            f"(trial {ctx.index}, fault_count {fault_count}): {err}"
        ) from err
    return result.single * 100.0, result.dual * 100.0


def _fig6_single_pct(value: tuple[float, float]) -> float:
    """Default adaptive statistic: a trial's single-network percentage."""
    return float(value[0])


def monte_carlo_disconnection(
    config: SystemConfig,
    fault_counts: list[int],
    trials: int = 100,
    seed: int = 0,
    *,
    workers: int = 1,
    cache=None,
    engine=None,
    adaptive=None,
) -> list[ConnectivityStats]:
    """Reproduce Fig. 6: mean disconnected-pair percentage vs fault count.

    Fault maps are uniformly random, matching the paper's "set of randomly
    generated fault maps".  Trials run on the experiment engine: pass
    ``workers`` to parallelise (statistics are identical at any worker
    count for the same ``seed``) and ``cache=True`` to reuse recorded
    runs; an explicit ``engine`` (an
    :class:`~repro.engine.ExperimentEngine` executor) overrides both.
    Trial ``i`` of fault count ``k`` draws its map from the ``i``-th
    child of ``SeedSequence((seed, k))``.

    ``adaptive`` takes a :class:`~repro.engine.CIStop` rule: ``trials``
    becomes a cap, and each fault count stops as soon as the bootstrap
    CI on the rule's statistic (default: the single-network disconnected
    percentage) closes.  Adaptive :class:`ConnectivityStats` report the
    executed trial count.

    A degenerate draw (< 2 healthy tiles) raises :class:`NetworkError`
    naming the trial index, fault count and run seed that produced it.
    """
    from ..engine import engine_scope

    if adaptive is not None and adaptive.statistic is None:
        adaptive = replace(adaptive, statistic=_fig6_single_pct)
    with engine_scope(engine, workers=workers, cache=cache) as eng:
        out: list[ConnectivityStats] = []
        for count in fault_counts:
            try:
                run = eng.run(
                    _disconnection_trial,
                    experiment="noc.fig6_disconnection",
                    trials=trials,
                    seed=(seed, count),
                    config=config,
                    params={"fault_count": count},
                    adaptive=adaptive,
                )
            except NetworkError as err:
                raise NetworkError(f"{err} [run seed {(seed, count)!r}]") from err
            singles = [single for single, _ in run.values]
            duals = [dual for _, dual in run.values]
            out.append(
                ConnectivityStats(
                    fault_count=count,
                    trials=len(run.values),
                    mean_single_pct=float(np.mean(singles)),
                    mean_dual_pct=float(np.mean(duals)),
                    std_single_pct=float(np.std(singles)),
                    std_dual_pct=float(np.std(duals)),
                )
            )
    return out


def same_row_col_share(fault_map: FaultMap) -> float:
    """Among dual-network-disconnected pairs, the share in a common row/column.

    The paper notes the residual disconnections under two networks "mostly
    connect those pairs of chiplets that are in the same row/column" —
    those pairs have no second disjoint path to begin with.  Built on the
    vectorized blockage matrices; :func:`_same_row_col_share_reference`
    walks every pair's two DoR paths explicitly (the test oracle).
    """
    cfg = fault_map.config
    xy_blocked, healthy = _blockage_matrix(fault_map)
    valid = healthy[:, None] & healthy[None, :]
    np.fill_diagonal(valid, False)
    dual_blocked = xy_blocked & xy_blocked.T & valid
    blocked_total = int(dual_blocked.sum())
    if blocked_total == 0:
        return 0.0
    same_rc = _coord_grid(cfg.rows, cfg.cols)["same_rc"]
    return int((dual_blocked & same_rc).sum()) / blocked_total


def _same_row_col_share_reference(fault_map: FaultMap) -> float:
    """Pure-Python per-pair path walk (test oracle)."""
    healthy = fault_map.healthy_tiles()
    blocked_same = 0
    blocked_total = 0
    from .routing import path_is_clear, xy_path, yx_path

    for src in healthy:
        for dst in healthy:
            if src == dst:
                continue
            xy_ok = path_is_clear(xy_path(src, dst), fault_map)
            yx_ok = path_is_clear(yx_path(src, dst), fault_map)
            if not xy_ok and not yx_ok:
                blocked_total += 1
                if src[0] == dst[0] or src[1] == dst[1]:
                    blocked_same += 1
    if blocked_total == 0:
        return 0.0
    return blocked_same / blocked_total
