"""Copper-pillar bonding-yield model (paper Section V).

The Si-IF die-to-wafer bond succeeds per pillar with probability >99.99%.
A chiplet with ~2000 pads would then bond flawlessly only
``0.9999^2000 ≈ 81.5%`` of the time — unacceptable when 2048 chiplets must
all land (expected ~380 faulty chiplets per wafer).  Landing **two pillars
on every pad** makes a pad fail only when *both* pillars fail:

    p_pad = 1 - (1 - p_pillar)^2

which lifts per-chiplet yield to ~99.998% and drops the expected faulty
count to ~1 per wafer.  These are exactly the numbers in Section V, and
this module reproduces them from the Bernoulli model.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import params
from ..errors import ConfigError


def pad_yield(pillar_yield: float, pillars_per_pad: int) -> float:
    """Probability that one pad bonds (at least one pillar succeeds)."""
    if not 0.0 < pillar_yield <= 1.0:
        raise ConfigError("pillar yield must be in (0, 1]")
    if pillars_per_pad < 1:
        raise ConfigError("pillars_per_pad must be >= 1")
    return 1.0 - (1.0 - pillar_yield) ** pillars_per_pad


def chiplet_bond_yield(
    io_count: int, pillar_yield: float, pillars_per_pad: int
) -> float:
    """Probability every pad on a chiplet bonds."""
    if io_count < 0:
        raise ConfigError("io_count must be non-negative")
    return pad_yield(pillar_yield, pillars_per_pad) ** io_count


def expected_faulty_chiplets(
    chiplet_count: int, io_count: int, pillar_yield: float, pillars_per_pad: int
) -> float:
    """Expected number of bonding-faulty chiplets on a wafer."""
    if chiplet_count < 0:
        raise ConfigError("chiplet_count must be non-negative")
    per_chiplet = chiplet_bond_yield(io_count, pillar_yield, pillars_per_pad)
    return chiplet_count * (1.0 - per_chiplet)


@dataclass(frozen=True)
class BondingYieldModel:
    """Bonding-yield analysis for one system configuration."""

    chiplet_count: int = params.CHIPLETS_TOTAL
    io_count: int = params.IOS_PER_COMPUTE_CHIPLET
    pillar_yield: float = params.PILLAR_BOND_YIELD
    pillars_per_pad: int = params.PILLARS_PER_PAD

    def __post_init__(self) -> None:
        if self.chiplet_count < 1:
            raise ConfigError("need at least one chiplet")

    @property
    def pad_yield(self) -> float:
        """Per-pad bond probability with redundancy."""
        return pad_yield(self.pillar_yield, self.pillars_per_pad)

    @property
    def chiplet_yield(self) -> float:
        """Per-chiplet bond probability."""
        return chiplet_bond_yield(
            self.io_count, self.pillar_yield, self.pillars_per_pad
        )

    @property
    def expected_faulty(self) -> float:
        """Expected faulty chiplets per wafer."""
        return expected_faulty_chiplets(
            self.chiplet_count, self.io_count, self.pillar_yield, self.pillars_per_pad
        )

    @property
    def system_yield_all_good(self) -> float:
        """Probability that *every* chiplet on the wafer bonds.

        Not a target the paper chases (the network tolerates faults), but
        useful to show why fault tolerance is mandatory at this scale.
        """
        return self.chiplet_yield**self.chiplet_count

    def with_redundancy(self, pillars_per_pad: int) -> "BondingYieldModel":
        """Variant with a different redundancy level (ablation helper)."""
        return BondingYieldModel(
            chiplet_count=self.chiplet_count,
            io_count=self.io_count,
            pillar_yield=self.pillar_yield,
            pillars_per_pad=pillars_per_pad,
        )
