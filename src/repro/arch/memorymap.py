"""The unified global address space (paper Section II).

Any core on any tile can directly address the globally shared memory of
the entire wafer.  We adopt a concrete map consistent with the paper's
sizes (word-addressed, 32-bit words):

=====================  ==========================================
region                 layout
=====================  ==========================================
``SHARED``             ``0x0000_0000 +`` tile_id * 512KB
                       + bank * 128KB + offset — the four shared
                       banks of every tile, 512MB total
``TILE_PRIVATE``       ``0x2000_0000 +`` tile_id * 128KB + offset
                       — the fifth bank, accessible only from its
                       own tile (cores and routers)
``CORE_PRIVATE``       ``0x4000_0000 +`` core-local 64KB SRAM
                       (same window on every core)
=====================  ==========================================

:func:`repro.flow.validate.validate_design` builds the map to check that
a configuration's banks fit these windows.
"""

from __future__ import annotations

from ..config import SystemConfig
from ..errors import MemoryMapError

SHARED_BASE = 0x0000_0000
TILE_PRIVATE_BASE = 0x2000_0000
CORE_PRIVATE_BASE = 0x4000_0000


class MemoryMap:
    """Region sizes of the unified address space for one configuration.

    Raises :class:`~repro.errors.MemoryMapError` when the shared or the
    tile-private region overflows its address window.
    """

    def __init__(self, config: SystemConfig):
        self.shared_size = (
            config.tiles * config.shared_banks_per_tile * config.bank_bytes
        )
        self.tile_private_size = config.tiles * config.bank_bytes
        if SHARED_BASE + self.shared_size > TILE_PRIVATE_BASE:
            raise MemoryMapError("shared region overflows its window")
        if TILE_PRIVATE_BASE + self.tile_private_size > CORE_PRIVATE_BASE:
            raise MemoryMapError("tile-private region overflows its window")
