"""Synthetic NoC traffic patterns for the cycle-level simulator.

Standard interconnect evaluation patterns, used by the network benchmarks
to measure latency/throughput of the dual-DoR mesh under load.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from ..config import Coord, SystemConfig
from ..errors import WorkloadError
from ..noc.dualnetwork import NetworkId
from ..noc.packets import Packet, gc_paused, materialise_packets, reserve_packet_ids

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..noc.simulator import NocSimulator


class TrafficPattern(enum.Enum):
    """Classic synthetic traffic patterns."""

    UNIFORM = "uniform"         # random destination
    TRANSPOSE = "transpose"     # (r, c) -> (c, r)
    BIT_REVERSAL = "bit_reversal"
    NEIGHBOR = "neighbor"       # east neighbour (wraps)
    HOTSPOT = "hotspot"         # all traffic to one tile


def _transpose(src: Coord, config: SystemConfig) -> Coord:
    r, c = src
    return (c % config.rows, r % config.cols)


def _bit_reverse(value: int, bits: int) -> int:
    out = 0
    for _ in range(bits):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


def destination_for(
    src: Coord,
    pattern: TrafficPattern,
    config: SystemConfig,
    rng: np.random.Generator,
    hotspot: Coord | None = None,
) -> Coord:
    """The destination a source sends to under a pattern."""
    if pattern is TrafficPattern.UNIFORM:
        flat = int(rng.integers(config.tiles))
        return (flat // config.cols, flat % config.cols)
    if pattern is TrafficPattern.TRANSPOSE:
        return _transpose(src, config)
    if pattern is TrafficPattern.BIT_REVERSAL:
        bits = max((config.tiles - 1).bit_length(), 1)
        flat = src[0] * config.cols + src[1]
        rev = _bit_reverse(flat, bits) % config.tiles
        return (rev // config.cols, rev % config.cols)
    if pattern is TrafficPattern.NEIGHBOR:
        return (src[0], (src[1] + 1) % config.cols)
    if pattern is TrafficPattern.HOTSPOT:
        return hotspot if hotspot is not None else (config.rows // 2, config.cols // 2)
    raise WorkloadError(f"unknown pattern {pattern}")


class TrafficSchedule(NamedTuple):
    """A request schedule as three aligned int64 arrays, sorted by cycle.

    ``src``/``dst`` are flat row-major tile indices.
    """

    cycle: np.ndarray
    src: np.ndarray
    dst: np.ndarray


def _validate(
    config: SystemConfig,
    pattern: TrafficPattern,
    rate: float,
    cycles: int,
    hotspot: Coord | None,
) -> None:
    if not isinstance(pattern, TrafficPattern):
        raise WorkloadError(f"unknown pattern {pattern!r}")
    if not 0.0 <= rate <= 1.0:
        raise WorkloadError("injection rate must be in [0, 1]")
    if isinstance(cycles, bool) or not isinstance(cycles, (int, np.integer)):
        raise WorkloadError(f"cycles must be an integer, got {cycles!r}")
    if cycles < 0:
        raise WorkloadError("cycles must be non-negative")
    if hotspot is not None:
        try:
            r, c = hotspot
            on_mesh = (
                all(isinstance(v, (int, np.integer)) for v in (r, c))
                and 0 <= r < config.rows
                and 0 <= c < config.cols
            )
        except (TypeError, ValueError):
            on_mesh = False
        if not on_mesh:
            raise WorkloadError(
                f"hotspot {hotspot!r} is not a tile of the "
                f"{config.rows}x{config.cols} array"
            )


def traffic_schedule(
    config: SystemConfig,
    pattern: TrafficPattern,
    rate: float,
    cycles: int,
    seed: int | np.random.Generator = 0,
    hotspot: Coord | None = None,
) -> TrafficSchedule:
    """The request schedule of a run, drawn as arrays.

    ``rate`` is packets per tile per cycle (0..1): each cycle, every tile
    Bernoulli-injects one request to its pattern destination, and a
    request addressed to its own source is dropped.  One vectorised draw
    per cycle consumes the generator exactly as a per-tile loop of scalar
    draws does (``rng.integers(n, size=k)`` equals ``k`` scalar
    ``rng.integers(n)`` calls), so the schedule is bit-identical to that
    loop's for every seed.  A :class:`numpy.random.Generator` passed as
    ``seed`` is drawn from (and advanced) in place.
    """
    _validate(config, pattern, rate, cycles, hotspot)
    rng = np.random.default_rng(seed)
    n = config.tiles
    table = None
    if pattern is not TrafficPattern.UNIFORM:
        # Fixed patterns: one destination per source, drawn from no RNG.
        table = np.array(
            [
                r * config.cols + c
                for r, c in (
                    destination_for(coord, pattern, config, rng, hotspot)
                    for coord in config.tile_coords()
                )
            ],
            dtype=np.int64,
        )
    cycle_parts, src_parts, dst_parts = [], [], []
    for cycle in range(cycles):
        src = np.flatnonzero(rng.random(n) < rate)
        if table is None:
            dst = rng.integers(n, size=src.size)
        else:
            dst = table[src]
        keep = dst != src
        if not keep.all():
            src, dst = src[keep], dst[keep]
        cycle_parts.append(np.full(src.size, cycle, dtype=np.int64))
        src_parts.append(src)
        dst_parts.append(dst)
    empty = np.empty(0, dtype=np.int64)
    return TrafficSchedule(
        *(np.concatenate([empty, *parts]) for parts in (cycle_parts, src_parts, dst_parts))
    )


def generate_traffic(
    config: SystemConfig,
    pattern: TrafficPattern,
    injection_rate: float,
    cycles: int,
    seed: int = 0,
    hotspot: Coord | None = None,
) -> list[tuple[int, Packet]]:
    """Generate ``(inject_cycle, packet)`` pairs for a simulation run.

    The :func:`traffic_schedule` materialised as REQUEST packets, in
    schedule order, with consecutive packet ids.
    """
    schedule = traffic_schedule(
        config, pattern, injection_rate, cycles, seed=seed, hotspot=hotspot
    )
    count = schedule.cycle.size
    first = reserve_packet_ids(count)
    with gc_paused():
        packets = materialise_packets(
            config.cols,
            src=schedule.src,
            dst=schedule.dst,
            packet_id=range(first, first + count),
        )
        return list(zip(schedule.cycle.tolist(), packets))


def drive_schedule(
    sim: "NocSimulator",
    schedule: TrafficSchedule,
    until: int,
    step: Callable[[], None] | None = None,
) -> None:
    """Run ``sim`` up to cycle ``until``, offering the schedule as it goes.

    Each cycle's schedule slice is injected on the XY network (requests
    travel XY, their responses YX) with one
    :meth:`~repro.noc.simulator.NocSimulator.inject_many` call when
    ``sim`` reaches that cycle, before it steps.  In between, ``sim``
    advances through ``step`` on every cycle when given (e.g. a
    checkpointing wrapper; it must step ``sim`` one cycle), else with
    one :meth:`~repro.noc.simulator.NocSimulator.run` over each stretch
    with nothing to inject.  Entries before ``sim.cycle`` are skipped:
    a resumed run picks up where its checkpoint stopped.
    """

    def advance(to: int) -> None:
        if step is None:
            if to > sim.cycle:
                sim.run(to - sim.cycle)
        else:
            while sim.cycle < to:
                step()

    lo, hi = np.searchsorted(schedule.cycle, [sim.cycle, until]).tolist()
    cycles, starts = np.unique(schedule.cycle[lo:hi], return_index=True)
    bounds = (starts + lo).tolist() + [hi]
    for k, cycle in enumerate(cycles.tolist()):
        advance(cycle)
        a, b = bounds[k], bounds[k + 1]
        sim.inject_many(schedule.src[a:b], schedule.dst[a:b], NetworkId.XY)
    advance(until)
