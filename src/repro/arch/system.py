"""The assembled waferscale system (paper Sections II and VI).

Holds the healthy tiles of a (possibly faulty) wafer and the kernel's
fault-aware network assignment (dual DoR networks, Section VI), which
the message-passing emulator (:mod:`repro.arch.emulator`) routes every
inter-tile message through.

Message latency model, shared by both emulator engines: one flow of
messages from ``src`` to ``dst`` in a superstep costs
``NETWORK_BASE + SERVICE_LATENCY + HOP_LATENCY * hops + words`` cycles,
where ``hops`` is the length of the kernel-selected network's DoR path
(the Manhattan distance, whichever of the two networks carries it) and
``words`` is the flow's total payload, pipelined one word per cycle
behind the head.  A detoured flow's ``hops`` are its two legs through
the intermediate tile, and each of its messages adds
``DETOUR_SOFTWARE_PENALTY`` for the cores forwarding it in software.
"""

from __future__ import annotations

from ..config import Coord, SystemConfig
from ..errors import EmulatorError
from ..noc.faults import FaultMap
from ..noc.kernel import KernelRouter

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
        self.kernel = KernelRouter(self.fault_map)
        self._healthy = self.fault_map.healthy_tiles()
        if not self._healthy:
            raise EmulatorError("no healthy tiles in the system")
        self._healthy_set = frozenset(self._healthy)

    def healthy_coords(self) -> list[Coord]:
        """Healthy tile coordinates, row-major."""
        return list(self._healthy)
