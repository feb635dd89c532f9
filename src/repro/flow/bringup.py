"""Wafer bring-up orchestration: from assembled wafer to running system.

The integration layer that stitches the DfT, clock, network and
architecture models into the sequence an actual bring-up would follow
(Sections IV, VI, VII):

1. **post-assembly test** — progressive JTAG unrolling along each of the
   32 row chains locates bonding-faulty tiles; repeated passes (skipping
   located faults, as the physical loop-back paths allow) complete the
   fault map;
2. **memory test** — March C- over every healthy tile's banks (sampled
   per-tile in the model), extending the fault map with memory-fail tiles;
3. **clock setup** — generate at a healthy edge tile, forward everywhere;
   tiles the clock cannot reach are marked unusable;
4. **fault-map persistence** — serialise the final map (JSON) for the
   kernel;
5. **kernel init** — build the network assignment machinery over the map;
6. **boot** — construct the :class:`WaferscaleSystem` on the surviving
   tiles.

Returns a :class:`BringupReport` with every intermediate artefact, so the
examples and tests can audit each stage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..arch.system import WaferscaleSystem
from ..clock.forwarding import ForwardingResult, simulate_clock_setup
from ..config import Coord, SystemConfig
from ..dft.mbist import FaultKind, FaultyBank, InjectedFault, march_c_minus
from ..dft.unrolling import ChainTestSession, TileUnderTest
from ..arch.membank import MemoryBank
from ..errors import ReproError
from ..noc.faults import FaultMap
from ..noc.kernel import KernelRouter


@dataclass
class BringupReport:
    """Everything the bring-up produced."""

    config: SystemConfig
    bonding_faults: set[Coord] = field(default_factory=set)
    memory_faults: set[Coord] = field(default_factory=set)
    clock_unreachable: set[Coord] = field(default_factory=set)
    final_map: FaultMap | None = None
    clock: ForwardingResult | None = None
    kernel: KernelRouter | None = None
    system: WaferscaleSystem | None = None
    unroll_tests_run: int = 0
    mbist_operations: int = 0

    @property
    def usable_tiles(self) -> int:
        """Tiles available to software after bring-up."""
        assert self.final_map is not None
        return self.final_map.healthy_count

    @property
    def all_faults(self) -> set[Coord]:
        """Union of every fault source."""
        return self.bonding_faults | self.memory_faults | self.clock_unreachable


def _unroll_row(
    row: int,
    config: SystemConfig,
    true_faults: set[Coord],
) -> tuple[set[Coord], int]:
    """Locate every faulty tile in one row chain by repeated unrolling.

    The physical mechanism: a located faulty chiplet's chain position is
    bridged through the upstream tile's TDI-bypass path, so testing can
    resume past it.  We model each resumption as a fresh session over the
    remaining suffix.
    """
    located: set[Coord] = set()
    tests = 0
    start = 0
    while start < config.cols:
        health = [
            (row, col) not in true_faults for col in range(start, config.cols)
        ]
        tiles = [TileUnderTest(index=i, healthy=h) for i, h in enumerate(health)]
        session = ChainTestSession(tiles=tiles)
        found = session.unroll()
        tests += session.tests_run
        if not found:
            break
        located.add((row, start + found[0]))
        start = start + found[0] + 1
    return located, tests


def run_bringup(
    config: SystemConfig,
    true_bonding_faults: set[Coord] | frozenset[Coord] = frozenset(),
    memory_fault_tiles: set[Coord] | frozenset[Coord] = frozenset(),
    mbist_sample_bytes: int = 1024,
) -> BringupReport:
    """Execute the full bring-up sequence against ground-truth fault sets.

    ``true_bonding_faults`` are dead tiles (unresponsive chiplets);
    ``memory_fault_tiles`` respond to JTAG but carry a stuck-at bit in a
    bank, to be caught by MBIST.
    """
    report = BringupReport(config=config)
    bonding = set(true_bonding_faults)
    for coord in bonding | set(memory_fault_tiles):
        config.validate_coord(coord)
    if bonding & set(memory_fault_tiles):
        raise ReproError("a tile cannot be both dead and memory-faulty")

    # 1. Progressive unrolling along each row chain.
    for row in range(config.rows):
        located, tests = _unroll_row(row, config, bonding)
        report.bonding_faults |= located
        report.unroll_tests_run += tests
    if report.bonding_faults != bonding:
        raise ReproError("unrolling failed to locate every dead tile")

    # 2. MBIST over responsive tiles (sampled region per bank).
    for coord in config.tile_coords():
        if coord in bonding:
            continue
        bank = MemoryBank(mbist_sample_bytes, name=f"bist-{coord}")
        if coord in memory_fault_tiles:
            target = FaultyBank(
                bank, [InjectedFault(FaultKind.STUCK_AT_1, 0, 3)]
            )
        else:
            target = bank
        result = march_c_minus(target)
        report.mbist_operations += result.operations
        if not result.passed:
            report.memory_faults.add(coord)
    if report.memory_faults != set(memory_fault_tiles):
        raise ReproError("MBIST missed an injected memory fault")

    # 3. Clock setup over the combined fault map.
    provisional = report.bonding_faults | report.memory_faults
    if len(provisional) >= config.tiles:
        raise ReproError("no healthy tiles to clock")
    report.clock = simulate_clock_setup(config, faulty=provisional)
    report.clock_unreachable = set(report.clock.unclocked_tiles)

    # 4. Final fault map (persisted by the caller via fault_map_to_json).
    report.final_map = FaultMap(config, frozenset(report.all_faults))

    # 5-6. Kernel + system boot on the survivors.
    report.kernel = KernelRouter(report.final_map)
    report.system = WaferscaleSystem(config, report.final_map)
    return report


# -- fault-map persistence ---------------------------------------------------


def fault_map_to_json(fault_map: FaultMap) -> str:
    """Serialise a fault map for the kernel (Section VI's stored map)."""
    payload = {
        "rows": fault_map.config.rows,
        "cols": fault_map.config.cols,
        "faulty": sorted([list(coord) for coord in fault_map.faulty]),
    }
    return json.dumps(payload, indent=2)
