"""JTAG daisy-chain model (paper Section VII).

The cores expose ARM Debug Access Ports driven over JTAG (IEEE 1149.1
minus boundary scan).  This module implements a bit-exact shift model
for a chain of JTAG devices, which the DAP/broadcast/unrolling layers
build on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import JtagError


@dataclass
class JtagDevice:
    """One device on a JTAG chain: an IR and per-instruction DRs."""

    name: str
    ir_length: int
    dr_lengths: dict[str, int] = field(
        default_factory=lambda: {"BYPASS": 1, "IDCODE": 32}
    )
    current_instruction: str = "BYPASS"
    dr_value: int = 0
    faulty: bool = False

    def __post_init__(self) -> None:
        if self.ir_length < 2:
            raise JtagError("IEEE 1149.1 requires IR length >= 2")
        if "BYPASS" not in self.dr_lengths:
            raise JtagError("every device must implement BYPASS")

    @property
    def dr_length(self) -> int:
        """Length of the currently selected data register."""
        return self.dr_lengths[self.current_instruction]

    def select(self, instruction: str) -> None:
        """Load an instruction (as if shifted through the IR)."""
        if instruction not in self.dr_lengths:
            raise JtagError(f"{self.name}: unknown instruction {instruction!r}")
        self.current_instruction = instruction


class JtagChain:
    """A daisy chain of JTAG devices with bit-exact DR shifting.

    A faulty device breaks the chain: bits shifted in never reach devices
    behind it and TDO is garbage — this is the failure mode progressive
    unrolling (Section VII-B) exists to localise.
    """

    def __init__(self, devices: list[JtagDevice]):
        if not devices:
            raise JtagError("chain needs at least one device")
        self.devices = list(devices)

    @property
    def total_dr_bits(self) -> int:
        """Total shift length through all selected DRs."""
        return sum(d.dr_length for d in self.devices)

    @property
    def broken(self) -> bool:
        """True when any device in the chain is faulty."""
        return any(d.faulty for d in self.devices)

    def select_all(self, instruction: str) -> None:
        """Load the same instruction into every device."""
        for device in self.devices:
            device.select(instruction)

    def shift_dr(self, tdi_bits: list[int]) -> list[int]:
        """Shift a bit sequence through the chain; returns TDO bits.

        TDI enters the first device; each device is a shift register of
        its DR length; TDO leaves the last device.  After shifting exactly
        ``total_dr_bits`` bits, each device's DR holds its slice.
        """
        if any(b not in (0, 1) for b in tdi_bits):
            raise JtagError("TDI bits must be 0/1")
        if self.broken:
            raise JtagError("chain is broken by a faulty device")
        registers = [
            [(d.dr_value >> i) & 1 for i in range(d.dr_length)]
            for d in self.devices
        ]
        tdo: list[int] = []
        for bit in tdi_bits:
            carry = bit
            for reg in registers:
                # Shift in at index 0 (nearest TDI), out at the far end.
                reg.insert(0, carry)
                carry = reg.pop()
            tdo.append(carry)
        for device, reg in zip(self.devices, registers):
            device.dr_value = sum(b << i for i, b in enumerate(reg))
        return tdo

    def scan_cycles(self, words: int, word_bits: int, overhead_per_scan: int = 10) -> int:
        """TCK cycles to scan ``words`` DR values through the chain.

        Each scan shifts ``word_bits`` per *target* device plus one bypass
        bit per other device, with TMS state overhead per scan.
        """
        if words < 0 or word_bits < 1:
            raise JtagError("invalid scan size")
        bypass_bits = len(self.devices) - 1
        return words * (word_bits + bypass_bits + overhead_per_scan)
