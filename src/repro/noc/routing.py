"""Dimension-ordered routing (paper Section VI).

Deadlock freedom on the mesh comes from dimension order: the X-Y network
routes each packet fully along its source row, then along the destination
column; the Y-X network does the opposite.  The two orders never share a
turn, so running both *as separate physical networks* keeps each
deadlock-free while giving most tile pairs two disjoint paths (Fig. 7).

Paths returned here include both endpoints.  A path is usable iff every
tile on it is healthy — routers sit on compute chiplets, so a faulty tile
breaks any path through it.
"""

from __future__ import annotations

import enum

import numpy as np

from ..config import Coord, SystemConfig
from ..errors import RoutingError
from .faults import FaultMap


class RoutingPolicy(enum.Enum):
    """The two dimension orders."""

    XY = "xy"       # row first, then column
    YX = "yx"       # column first, then row


#: Integer port codes used by the struct-of-arrays vector engine.  The
#: order matches ``list(repro.noc.router.Port)`` exactly (N, S, W, E,
#: LOCAL) so a code doubles as an index into per-port arrays, and the
#: N/S and W/E pairs differ only in the low bit: the downstream entry
#: port of an output port is ``code ^ 1``.
PORT_NORTH, PORT_SOUTH, PORT_WEST, PORT_EAST, PORT_LOCAL = range(5)


def dor_port_code(
    cur_r: int, cur_c: int, dst_r: int, dst_c: int, policy: RoutingPolicy
) -> int:
    """The DoR output-port code at ``(cur_r, cur_c)`` toward a destination.

    Scalar twin of :func:`build_port_lut` for arrays too large to
    tabulate; agrees with :func:`next_hop` at every tile pair.
    """
    if policy is RoutingPolicy.XY:
        if dst_c != cur_c:
            return PORT_EAST if dst_c > cur_c else PORT_WEST
        if dst_r != cur_r:
            return PORT_SOUTH if dst_r > cur_r else PORT_NORTH
        return PORT_LOCAL
    if dst_r != cur_r:
        return PORT_SOUTH if dst_r > cur_r else PORT_NORTH
    if dst_c != cur_c:
        return PORT_EAST if dst_c > cur_c else PORT_WEST
    return PORT_LOCAL


def dor_port_codes(
    cur_r: np.ndarray,
    cur_c: np.ndarray,
    dst_r: np.ndarray,
    dst_c: np.ndarray,
    policy: RoutingPolicy,
) -> np.ndarray:
    """Vectorized :func:`dor_port_code` over coordinate arrays.

    All four arguments broadcast against each other; the result is an
    int8 array of port codes with the broadcast shape.  This is the
    arithmetic routing kernel the vector engine uses for meshes too
    large to tabulate — and :func:`build_port_lut` is just this kernel
    evaluated on the full ``(cur, dst)`` product.
    """
    cur_r = np.asarray(cur_r)
    cur_c = np.asarray(cur_c)
    dst_r = np.asarray(dst_r)
    dst_c = np.asarray(dst_c)
    col_port = np.where(dst_c > cur_c, PORT_EAST, PORT_WEST)
    row_port = np.where(dst_r > cur_r, PORT_SOUTH, PORT_NORTH)
    same_r, same_c = dst_r == cur_r, dst_c == cur_c
    if policy is RoutingPolicy.XY:
        out = np.where(same_c, row_port, col_port)
    else:
        out = np.where(same_r, col_port, row_port)
    return np.where(same_r & same_c, PORT_LOCAL, out).astype(np.int8)


#: Memoized port tables: every simulator construction at a given mesh
#: size asks for the identical pure-function tabulation, and at 32x32
#: the two (1024, 1024) builds dominate construction time.  Entries are
#: marked read-only so sharing is safe; the cache is bounded because
#: entry count grows only with distinct mesh shapes in one process.
_LUT_CACHE: dict[tuple[int, int, "RoutingPolicy"], np.ndarray] = {}


def build_port_lut(rows: int, cols: int, policy: RoutingPolicy) -> np.ndarray:
    """Tabulate the static DoR output-port decision for a whole mesh.

    Returns an ``(N, N)`` int8 array (``N = rows * cols``) whose entry
    ``[cur, dst]`` is the port code (:data:`PORT_NORTH` ..
    :data:`PORT_LOCAL`) a router at flat row-major index ``cur`` uses
    for a packet addressed to flat index ``dst``.  The decision is a
    pure function of the coordinate pair — faults never reroute DoR
    traffic, they only drop it — so one table per network replaces every
    per-packet policy call in the simulator's hot loop.  Results are
    memoized per ``(rows, cols, policy)`` and returned read-only; copy
    before mutating.
    """
    if rows < 1 or cols < 1:
        raise RoutingError("mesh dimensions must be positive")
    key = (rows, cols, policy)
    cached = _LUT_CACHE.get(key)
    if cached is None:
        flat = np.arange(rows * cols)
        r, c = flat // cols, flat % cols
        cached = dor_port_codes(
            r[:, None], c[:, None], r[None, :], c[None, :], policy
        )
        cached.flags.writeable = False
        _LUT_CACHE[key] = cached
    return cached


def _steps(a: int, b: int) -> list[int]:
    """Inclusive integer walk from ``a`` to ``b`` (excluding ``a``)."""
    if a == b:
        return []
    step = 1 if b > a else -1
    return list(range(a + step, b + step, step))


def xy_path(src: Coord, dst: Coord) -> list[Coord]:
    """X-Y dimension-ordered path: along the source row, then the column."""
    r1, c1 = src
    r2, c2 = dst
    path = [src]
    path.extend((r1, c) for c in _steps(c1, c2))
    path.extend((r, c2) for r in _steps(r1, r2))
    return path

def yx_path(src: Coord, dst: Coord) -> list[Coord]:
    """Y-X dimension-ordered path: along the source column, then the row."""
    r1, c1 = src
    r2, c2 = dst
    path = [src]
    path.extend((r, c1) for r in _steps(r1, r2))
    path.extend((r2, c) for c in _steps(c1, c2))
    return path


def dor_path(src: Coord, dst: Coord, policy: RoutingPolicy) -> list[Coord]:
    """The DoR path under the given policy."""
    if policy is RoutingPolicy.XY:
        return xy_path(src, dst)
    return yx_path(src, dst)


def path_is_clear(path: list[Coord], fault_map: FaultMap) -> bool:
    """True when no tile on the path (endpoints included) is faulty."""
    return all(not fault_map.is_faulty(coord) for coord in path)


def route(
    src: Coord,
    dst: Coord,
    policy: RoutingPolicy,
    fault_map: FaultMap | None = None,
) -> list[Coord]:
    """Compute a DoR path, verifying it against a fault map if given."""
    config = fault_map.config if fault_map is not None else None
    if config is not None:
        config.validate_coord(src)
        config.validate_coord(dst)
    path = dor_path(src, dst, policy)
    if fault_map is not None and not path_is_clear(path, fault_map):
        raise RoutingError(
            f"{policy.value} path {src}->{dst} blocked by faulty tile"
        )
    return path


def next_hop(current: Coord, dst: Coord, policy: RoutingPolicy) -> Coord:
    """The router's single-step DoR decision (used by the simulator).

    X-Y: correct the column while off the destination column, else the row.
    Y-X: correct the row first.
    """
    r, c = current
    dr, dc = dst
    if current == dst:
        raise RoutingError("already at destination")
    if policy is RoutingPolicy.XY:
        if c != dc:
            return (r, c + (1 if dc > c else -1))
        return (r + (1 if dr > r else -1), c)
    if r != dr:
        return (r + (1 if dr > r else -1), c)
    return (r, c + (1 if dc > c else -1))
