"""System architecture and message-passing emulator (paper Section II).

The paper validated its architecture by emulating a reduced-size
multi-tile system on FPGA and running graph workloads (BFS, SSSP).  This
package is the software analogue at the granularity those workloads
exercise: a wafer of healthy tiles behind the kernel's fault-aware
network assignment (:class:`WaferscaleSystem`), a task-level emulator
that runs per-tile compute supersteps and prices every inter-tile
message on the mesh (:class:`Emulator`, with a bit-identical vector
engine), the energy model over its statistics, the SRAM banks the DfT
self-test marches, and the unified address map's region windows.
"""

from .emulator import EmulationStats, Emulator
from .energy import EnergyBreakdown, EnergyModel
from .membank import MemoryBank
from .memorymap import MemoryMap
from .system import WaferscaleSystem

__all__ = [
    "EmulationStats",
    "EnergyBreakdown",
    "EnergyModel",
    "Emulator",
    "MemoryBank",
    "MemoryMap",
    "WaferscaleSystem",
]
