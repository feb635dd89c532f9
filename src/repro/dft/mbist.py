"""Memory built-in self-test: march algorithms over the SRAM banks.

Section VII loads "test routines" into the cores through JTAG; the
routine any memory-heavy chiplet runs first is a march test over its
banks.  This module implements the standard March C- algorithm against
the :class:`~repro.arch.membank.MemoryBank` model, with a
fault-injection wrapper so detection coverage is testable.

March C- elements (⇕ any order, ⇑ ascending, ⇓ descending):

    ⇕(w0) ⇑(r0,w1) ⇑(r1,w0) ⇓(r0,w1) ⇓(r1,w0) ⇕(r0)

March C- detects all stuck-at, transition, and coupling faults in the
classic fault model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..arch.membank import MemoryBank, WORD_BYTES
from ..errors import JtagError

ALL_ONES = 0xFFFF_FFFF


class FaultKind(enum.Enum):
    """Injectable memory fault models."""

    STUCK_AT_0 = "sa0"
    STUCK_AT_1 = "sa1"
    TRANSITION_UP = "tf_up"       # cell cannot make a 0 -> 1 transition


@dataclass
class InjectedFault:
    """One injected cell fault (word offset + bit position)."""

    kind: FaultKind
    offset: int
    bit: int

    def __post_init__(self) -> None:
        if not 0 <= self.bit < 32:
            raise JtagError("bit must be in 0..31")
        if self.offset % WORD_BYTES:
            raise JtagError("offset must be word-aligned")


class FaultyBank:
    """A MemoryBank wrapper that applies injected faults on access."""

    def __init__(self, bank: MemoryBank, faults: list[InjectedFault] | None = None):
        self.bank = bank
        self.faults = list(faults or [])

    def _apply_read_faults(self, offset: int, value: int) -> int:
        for fault in self.faults:
            if fault.offset != offset:
                continue
            mask = 1 << fault.bit
            if fault.kind is FaultKind.STUCK_AT_0:
                value &= ~mask
            elif fault.kind is FaultKind.STUCK_AT_1:
                value |= mask
        return value & ALL_ONES

    def read_word(self, offset: int) -> int:
        """Read with stuck-at faults applied."""
        return self._apply_read_faults(offset, self.bank.read_word(offset))

    def write_word(self, offset: int, value: int) -> None:
        """Write with transition faults applied."""
        for fault in self.faults:
            if fault.offset != offset:
                continue
            if fault.kind is FaultKind.TRANSITION_UP:
                mask = 1 << fault.bit
                old = self.bank.read_word(offset)
                if not old & mask and value & mask:
                    value &= ~mask      # the 0->1 transition fails
        self.bank.write_word(offset, value & ALL_ONES)

    @property
    def size_bytes(self) -> int:
        """Capacity of the wrapped bank."""
        return self.bank.size_bytes


@dataclass
class MbistResult:
    """Outcome of one march run."""

    algorithm: str
    passed: bool
    failures: list[tuple[int, int, int]] = field(default_factory=list)
    # (offset, expected, observed)
    operations: int = 0

    @property
    def failing_offsets(self) -> list[int]:
        """Distinct word offsets that miscompared."""
        return sorted({offset for offset, _, _ in self.failures})


def _march(
    bank: FaultyBank | MemoryBank,
    elements: list[tuple[str, list[tuple[str, int]]]],
    name: str,
) -> MbistResult:
    """Run a march algorithm described as (direction, [(op, value)])."""
    result = MbistResult(algorithm=name, passed=True)
    words = bank.size_bytes // WORD_BYTES
    for direction, ops in elements:
        if direction == "up":
            offsets = range(0, words * WORD_BYTES, WORD_BYTES)
        elif direction == "down":
            offsets = range((words - 1) * WORD_BYTES, -1, -WORD_BYTES)
        else:
            raise JtagError(f"bad march direction {direction!r}")
        for offset in offsets:
            for op, value in ops:
                result.operations += 1
                if op == "w":
                    bank.write_word(offset, value)
                elif op == "r":
                    observed = bank.read_word(offset)
                    if observed != value:
                        result.passed = False
                        result.failures.append((offset, value, observed))
                else:
                    raise JtagError(f"bad march op {op!r}")
    return result


def march_c_minus(bank: FaultyBank | MemoryBank) -> MbistResult:
    """Full March C- (10N operations): detects SAF, TF and CF faults."""
    one, zero = ALL_ONES, 0
    elements = [
        ("up", [("w", zero)]),
        ("up", [("r", zero), ("w", one)]),
        ("up", [("r", one), ("w", zero)]),
        ("down", [("r", zero), ("w", one)]),
        ("down", [("r", one), ("w", zero)]),
        ("down", [("r", zero)]),
    ]
    return _march(bank, elements, "March C-")
