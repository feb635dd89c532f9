"""SRAM memory banks (paper Section II-c).

The memory chiplet carries five 128KB single-ported SRAM banks; all five
can be accessed in parallel (one access per bank per cycle), which is
where the 6.144 TB/s aggregate shared-memory bandwidth of Table I comes
from (1024 tiles x 5 banks x 32 bit x 300MHz).
"""

from __future__ import annotations

from ..errors import EmulatorError

WORD_BYTES = 4


class MemoryBank:
    """One single-ported SRAM bank, word-addressed internally."""

    def __init__(self, size_bytes: int, name: str = "bank"):
        if size_bytes <= 0 or size_bytes % WORD_BYTES:
            raise EmulatorError("bank size must be a positive multiple of 4")
        self.name = name
        self.size_bytes = size_bytes
        self._words: dict[int, int] = {}    # sparse backing store
        self.reads = 0
        self.writes = 0

    def _check(self, offset: int) -> int:
        if offset % WORD_BYTES:
            raise EmulatorError(
                f"{self.name}: unaligned access at offset {offset}"
            )
        if not 0 <= offset < self.size_bytes:
            raise EmulatorError(
                f"{self.name}: offset {offset} outside {self.size_bytes}B bank"
            )
        return offset // WORD_BYTES

    def read_word(self, offset: int) -> int:
        """Read the 32-bit word at a byte offset (zero if never written)."""
        index = self._check(offset)
        self.reads += 1
        return self._words.get(index, 0)

    def write_word(self, offset: int, value: int) -> None:
        """Write a 32-bit word at a byte offset."""
        index = self._check(offset)
        if not 0 <= value < (1 << 32):
            raise EmulatorError(f"{self.name}: value exceeds 32 bits")
        self.writes += 1
        self._words[index] = value

    @property
    def access_count(self) -> int:
        """Total accesses served."""
        return self.reads + self.writes

    def clear(self) -> None:
        """Reset contents and counters."""
        self._words.clear()
        self.reads = 0
        self.writes = 0
