"""Die-yield and known-good-die models (paper Sections I-II, V).

The chiplet approach's core economic claim: small pre-tested dies yield
far better than one monolithic waferscale device, and pre-bond testing
(Section VII-A) turns die yield into a *known-good-die* rate so that only
bonding failures remain at assembly.

Die yield follows the standard negative-binomial (clustered-defect) model

    Y = (1 + A * D0 / alpha) ^ -alpha

with area ``A`` in cm^2, defect density ``D0`` per cm^2 and clustering
parameter ``alpha``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError

# Mature-node (40nm-class) defect density and clustering defaults.
DEFAULT_D0_PER_CM2 = 0.25
DEFAULT_ALPHA = 2.0


@dataclass(frozen=True)
class DefectModel:
    """Negative-binomial defect model parameters."""

    d0_per_cm2: float = DEFAULT_D0_PER_CM2
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self) -> None:
        if self.d0_per_cm2 < 0:
            raise ConfigError("defect density must be non-negative")
        if self.alpha <= 0:
            raise ConfigError("clustering alpha must be positive")


def die_yield(area_mm2: float, model: DefectModel | None = None) -> float:
    """Fabrication yield of one die of the given area."""
    if area_mm2 <= 0:
        raise ConfigError("die area must be positive")
    m = model or DefectModel()
    area_cm2 = area_mm2 / 100.0
    return (1.0 + area_cm2 * m.d0_per_cm2 / m.alpha) ** (-m.alpha)


def known_good_die_rate(
    area_mm2: float,
    test_coverage: float = 0.99,
    model: DefectModel | None = None,
) -> float:
    """Fraction of *shipped* dies that are actually good after pre-bond test.

    Pre-bond testing with coverage ``t`` rejects a fraction ``t`` of bad
    dies; the shipped population is good dies plus escapes:

        KGD = Y / (Y + (1 - Y) * (1 - t))
    """
    if not 0.0 <= test_coverage <= 1.0:
        raise ConfigError("test coverage must be in [0, 1]")
    y = die_yield(area_mm2, model)
    escapes = (1.0 - y) * (1.0 - test_coverage)
    return y / (y + escapes)
