"""Shared fixtures for the test suite."""

import pytest

from repro.arch.emulator import clear_route_cache
from repro.config import SystemConfig
from repro.noc.faults import FaultMap


@pytest.fixture(autouse=True)
def _fresh_route_caches():
    """Clear the vector emulator's route tables around every test.

    The route-table LRU is process-wide and keyed by fault map, so
    entries seeded by one test would otherwise leak into the next —
    invisible under the default ordering but flaky under
    ``pytest-randomly``.
    """
    clear_route_cache()
    yield
    clear_route_cache()


@pytest.fixture
def paper_cfg() -> SystemConfig:
    """The full 32x32 paper configuration."""
    return SystemConfig()


@pytest.fixture
def small_cfg() -> SystemConfig:
    """An 8x8 configuration (Fig. 4 scale) for simulation-heavy tests."""
    return SystemConfig(rows=8, cols=8)


@pytest.fixture
def tiny_cfg() -> SystemConfig:
    """A 4x4 configuration for emulator tests."""
    return SystemConfig(rows=4, cols=4)


@pytest.fixture
def clean_map(small_cfg) -> FaultMap:
    """An 8x8 fault map with no faults."""
    return FaultMap(small_cfg)
