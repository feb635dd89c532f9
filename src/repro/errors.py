"""Exception hierarchy for the waferscale design-flow library.

Every error raised intentionally by this package derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors (``TypeError``, ``KeyError``, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """A system configuration is inconsistent or out of the modeled range."""


class GeometryError(ReproError):
    """Wafer/tile/chiplet geometry is invalid (overlaps, out of bounds, ...)."""


class PdnError(ReproError):
    """Power-delivery-network construction or solve failed."""


class ConvergenceError(PdnError):
    """An iterative solver did not converge within its iteration budget."""


class ClockError(ReproError):
    """Clock generation/forwarding protocol violation."""


class NetworkError(ReproError):
    """Waferscale network construction or routing failure."""


class RoutingError(NetworkError):
    """No legal route exists (DoR path blocked, substrate track overflow...)."""


class CheckpointError(NetworkError):
    """A simulator checkpoint is unreadable, corrupted or inconsistent."""


class FaultMapError(ReproError):
    """A fault map is malformed or inconsistent with the tile grid."""


class JtagError(ReproError):
    """JTAG/DfT protocol violation (bad state transition, broken chain...)."""


class SubstrateError(ReproError):
    """Si-IF substrate design failure (DRC violation, unroutable net...)."""


class DrcError(SubstrateError):
    """A design-rule check failed."""


class EmulatorError(ReproError):
    """Functional emulator error (bad address, halted core access...)."""


class ObsError(ReproError):
    """Telemetry failure (bad metric use, malformed sink file...)."""


class MemoryMapError(EmulatorError):
    """An address does not decode to any mapped resource."""


class WorkloadError(ReproError):
    """A workload is malformed (disconnected source, bad weights...)."""
