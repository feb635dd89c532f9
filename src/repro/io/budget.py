"""Per-chiplet I/O budgeting (paper Table I and Sections V-VI).

The compute chiplet carries 2020 I/Os, the memory chiplet 1250.  The
dominant consumer is the inter-tile network: a 400-bit link escapes each of
the four sides of the tile (Section VI), split into four 100-bit buses (two
DoR networks x ingress/egress).  The rest covers the compute-to-memory
chiplet interface, forwarded clocks, JTAG and power.

This module reconstructs those budgets bottom-up and checks they fit the
perimeter at the 10um pillar pitch, and aggregates the wafer-level pillar
and I/O totals (the paper's "3.7M+ inter-chip I/Os").
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import params
from ..config import SystemConfig
from ..errors import ConfigError
from ..geometry.chiplet import ChipletSpec, compute_chiplet, memory_chiplet


@dataclass(frozen=True)
class ChipletIoBudget:
    """Bottom-up I/O budget of one chiplet."""

    chiplet: ChipletSpec
    network_ios: int
    memory_interface_ios: int
    clock_ios: int
    test_ios: int
    power_ios: int
    spare_ios: int

    @property
    def total(self) -> int:
        """Total budgeted I/Os."""
        return (
            self.network_ios
            + self.memory_interface_ios
            + self.clock_ios
            + self.test_ios
            + self.power_ios
            + self.spare_ios
        )

    @property
    def total_pillars(self) -> int:
        """Copper pillars, at two per pad."""
        return self.total * params.PILLARS_PER_PAD

    def fits_perimeter(self, pad_pitch_um: float, pad_rows: int = 2) -> bool:
        """Do the pads fit the chiplet perimeter at this pitch?"""
        return self.total <= self.chiplet.max_perimeter_ios(pad_pitch_um, pad_rows)


def compute_io_budget(config: SystemConfig | None = None) -> ChipletIoBudget:
    """I/O budget of the compute chiplet.

    The network takes ``4 sides x link_width`` pads; the compute-memory
    interface must reach all five banks of the memory chiplet (address,
    data, control per bank); clocks are one forwarded pair per side plus
    master/JTAG clocks; the remainder up to Table I's 2020 is power and
    spare.
    """
    cfg = config or SystemConfig()
    network = 4 * cfg.link_width_bits
    # Per-bank interface: 32-bit bidirectional data + 15-bit address + 4
    # control strobes.
    per_bank = 32 + 15 + 4
    memory_if = cfg.memory_banks_per_tile * per_bank
    clocks = 4 * 2 + 2              # forwarded in/out per side, master, JTAG
    test = 12                       # TDI/TDO/TMS/TCK + chain controls
    declared = cfg.ios_per_compute_chiplet
    used = network + memory_if + clocks + test
    if used > declared:
        raise ConfigError(
            f"compute chiplet budget overflow: {used} > {declared}"
        )
    # Remaining pads: mostly power/ground pillars, a few spares.
    power = int((declared - used) * 0.8)
    spare = declared - used - power
    return ChipletIoBudget(
        chiplet=compute_chiplet(cfg),
        network_ios=network,
        memory_interface_ios=memory_if,
        clock_ios=clocks,
        test_ios=test,
        power_ios=power,
        spare_ios=spare,
    )


def memory_io_budget(config: SystemConfig | None = None) -> ChipletIoBudget:
    """I/O budget of the memory chiplet.

    Mirrors the bank interfaces of the compute chiplet, plus the buffered
    north-south feedthroughs for the vertical mesh links (Section II-c),
    power for the banks and the decap banks' sense pins.
    """
    cfg = config or SystemConfig()
    per_bank = 32 + 15 + 4
    memory_if = cfg.memory_banks_per_tile * per_bank
    feedthrough = cfg.link_width_bits     # N-S mesh links pass through
    declared = cfg.ios_per_memory_chiplet
    used = memory_if + feedthrough
    if used > declared:
        raise ConfigError(
            f"memory chiplet budget overflow: {used} > {declared}"
        )
    power = int((declared - used) * 0.9)
    spare = declared - used - power
    return ChipletIoBudget(
        chiplet=memory_chiplet(cfg),
        network_ios=feedthrough,
        memory_interface_ios=memory_if,
        clock_ios=0,
        test_ios=0,
        power_ios=power,
        spare_ios=spare,
    )
