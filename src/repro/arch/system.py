"""The assembled waferscale system (paper Sections II and VI).

Holds the tile grid over a fault map, attaches the kernel's network
assignment (dual DoR networks, Section VI) and provides:

* a unified-memory view: any core can load/store any shared address, with
  remote accesses priced by the mesh round trip;
* whole-system program loading (broadcast, Section VII);
* lock-step execution of all cores.

Tiles (cores, crossbars and SRAM banks) are built on first use of an ISA
entry point; the message-passing emulator never touches them.

Network latency model: a remote access costs
``base + hop_latency * hops(request) + service + hop_latency * hops(response)``
where the request/response hop counts come from the kernel-selected
network's DoR path (they are equal — Fig. 7).  Detoured pairs pay both
legs plus a software-forwarding penalty at the intermediate tile.
"""

from __future__ import annotations

from ..config import Coord, SystemConfig
from ..errors import EmulatorError, NetworkError
from ..noc.faults import FaultMap
from ..noc.kernel import KernelRouter
from .isa import Program
from .membank import MemoryBank
from .memorymap import MemoryMap
from .tile import Tile

HOP_LATENCY = 2         # router + link traversal per hop, cycles
NETWORK_BASE = 4        # injection + ejection overhead, cycles
SERVICE_LATENCY = 2     # remote bank access at the destination
DETOUR_SOFTWARE_PENALTY = 20    # cores forwarding in software (Section VI)


class WaferscaleSystem:
    """A (possibly reduced, possibly faulty) waferscale processor."""

    def __init__(
        self,
        config: SystemConfig | None = None,
        fault_map: FaultMap | None = None,
    ):
        self.config = config or SystemConfig()
        self.fault_map = fault_map or FaultMap(self.config)
        self.memory_map = MemoryMap(self.config)
        self.kernel = KernelRouter(self.fault_map)
        self._healthy = self.fault_map.healthy_tiles()
        if not self._healthy:
            raise EmulatorError("no healthy tiles in the system")
        self._healthy_set = frozenset(self._healthy)
        self._tiles: dict[Coord, Tile] | None = None
        self.network_accesses = 0
        self.network_hops_total = 0

    # -- topology helpers ---------------------------------------------------

    @property
    def tiles(self) -> dict[Coord, Tile]:
        """Every healthy tile, row-major, built on first use.

        The message-passing emulator reads only :meth:`healthy_coords`,
        :attr:`kernel` and :attr:`fault_map`, so it never pays for the
        cores and banks; the ISA entry points build them through here.
        """
        if self._tiles is None:
            self._tiles = {}
            for coord in self._healthy:
                tile = Tile(
                    coord,
                    self.config,
                    self.memory_map,
                    remote_access=self._remote_latency,
                )
                tile._bank_resolver = self._resolve_bank
                self._tiles[coord] = tile
        return self._tiles

    def tile(self, coord: Coord) -> Tile:
        """A healthy tile (raises for faulty/absent tiles)."""
        if coord not in self._healthy_set:
            raise EmulatorError(f"tile {coord} is faulty or absent")
        return self.tiles[coord]

    def healthy_coords(self) -> list[Coord]:
        """Healthy tile coordinates, row-major."""
        return list(self._healthy)

    # -- network model -------------------------------------------------------

    def _remote_latency(self, src: Coord, dst: Coord, is_write: bool) -> int:
        """Round-trip latency of one remote shared access."""
        assignment = self.kernel.assign(src, dst, allow_detour=True)
        if not assignment.reachable and not assignment.is_detour:
            raise NetworkError(f"{src} cannot reach {dst} (fault map)")
        self.network_accesses += 1
        if assignment.is_detour:
            via = assignment.detour_via
            assert via is not None
            hops = (
                self._hops(src, via)
                + self._hops(via, dst)
            )
            self.network_hops_total += 2 * hops
            return (
                NETWORK_BASE
                + SERVICE_LATENCY
                + DETOUR_SOFTWARE_PENALTY
                + 2 * hops * HOP_LATENCY
            )
        assert assignment.network is not None
        # DoR paths are minimal: the hop count is the Manhattan distance,
        # whichever network (X-Y or Y-X) the kernel assigned.
        hops = self._hops(src, dst)
        self.network_hops_total += 2 * hops
        return NETWORK_BASE + SERVICE_LATENCY + 2 * hops * HOP_LATENCY

    def _hops(self, a: Coord, b: Coord) -> int:
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    def _resolve_bank(self, coord: Coord, bank: int) -> MemoryBank:
        """The physical bank behind a shared address (for data movement)."""
        return self.tile(coord).banks[bank]

    # -- direct memory API (used by workloads and the DfT loader) -----------

    def read_shared(self, tile: Coord, bank: int, offset: int) -> int:
        """Host-side read of a shared word (no latency accounting)."""
        return self._resolve_bank(tile, bank).read_word(offset)

    def write_shared(self, tile: Coord, bank: int, offset: int, value: int) -> None:
        """Host-side write of a shared word (program/data loading path)."""
        self._resolve_bank(tile, bank).write_word(offset, value)

    # -- program execution ----------------------------------------------------

    def broadcast_program(self, program: Program) -> None:
        """Load one program into every core of every healthy tile."""
        for tile in self.tiles.values():
            tile.load_program_all_cores(program)

    def run_to_completion(self, max_cycles: int = 1_000_000) -> int:
        """Step all cores in lock-step until every core halts."""
        tiles = self.tiles.values()
        cycles = 0
        while not all(t.all_halted for t in tiles):
            if cycles >= max_cycles:
                raise EmulatorError(f"system exceeded {max_cycles} cycles")
            for tile in tiles:
                tile.step()
            cycles += 1
        return cycles

    # -- accounting -----------------------------------------------------------

    @property
    def total_remote_accesses(self) -> int:
        """Remote shared accesses issued system-wide (0 before any tile exists)."""
        if self._tiles is None:
            return 0
        return sum(t.remote_reads + t.remote_writes for t in self.tiles.values())

    @property
    def mean_hops_per_access(self) -> float:
        """Average round-trip hop count per network access."""
        if self.network_accesses == 0:
            return 0.0
        return self.network_hops_total / self.network_accesses
