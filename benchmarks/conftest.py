"""Shared helpers for the benchmark harness.

Each bench regenerates one table or figure of the paper: the benchmark
timing measures the analysis itself, and the paper's rows/series are
attached to ``benchmark.extra_info`` and printed so ``pytest benchmarks/
--benchmark-only -s`` reproduces the evaluation section.
"""

import pytest

from repro.arch.emulator import clear_route_cache
from repro.config import SystemConfig


@pytest.fixture(autouse=True)
def _fresh_route_caches():
    """Benchmarks must not inherit another bench's warmed route tables."""
    clear_route_cache()
    yield
    clear_route_cache()


@pytest.fixture(scope="session")
def paper_cfg() -> SystemConfig:
    """The full 32x32 paper configuration."""
    return SystemConfig()


@pytest.fixture(scope="session")
def reduced_cfg() -> SystemConfig:
    """Reduced configuration for simulation-heavy benches."""
    return SystemConfig(rows=8, cols=8)


def print_series(title: str, rows: list[tuple]) -> None:
    """Render a small table under the benchmark output."""
    print(f"\n=== {title} ===")
    for row in rows:
        print("   ", *row)
