"""Synthetic frontier-wave workload for emulator benchmarking.

BFS-shaped traffic without the graph bookkeeping: a seed tile launches a
wave of messages, and every message with remaining TTL fans out to
``fanout`` destinations drawn from a precomputed random pool.  The wave
grows geometrically (``width * fanout**step`` messages in flight), so a
few supersteps put full-wafer-scale pressure on the emulator's delivery
barrier — which is exactly what the vector engine optimises — while the
per-tile compute stays a trivial counter.

Destination draws come from a pool array indexed by a rolling cursor, so
traffic is a pure function of the seed and of compute-call order.  The
engines deliver inboxes in an identical order (that is the differential
guarantee), hence the generated traffic — and every
:class:`~repro.arch.emulator.EmulationStats` field — is identical across
``engine="reference" | "vector"`` (``"fast"`` is an alias of
``"reference"``).

All messages in flight at one superstep share a TTL (the wave depth), so
each tile forwards its whole inbox with a single
:meth:`~repro.arch.emulator.Emulator.send_batch` call: the vector engine
queues it as one flat array segment, the scalar oracle falls back to a
per-destination loop, and both produce the same message sequence.
"""

from __future__ import annotations

import numpy as np

from ..arch.emulator import EmulationStats, Emulator, Message
from ..arch.system import WaferscaleSystem
from ..config import Coord
from ..errors import WorkloadError


class FrontierWave:
    """A geometric message wave over the healthy tiles of a system."""

    def __init__(
        self,
        system: WaferscaleSystem,
        *,
        width: int = 8,
        fanout: int = 4,
        ttl: int = 3,
        pool: int = 1 << 15,
        seed: int = 0,
    ):
        if width < 1 or fanout < 1 or ttl < 0:
            raise WorkloadError("width/fanout must be >= 1 and ttl >= 0")
        self.system = system
        self.width = width
        self.fanout = fanout
        self.ttl = ttl
        cols = system.config.cols
        healthy = np.array(
            [r * cols + c for (r, c) in system.healthy_coords()],
            dtype=np.int64,
        )
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        self._pool = rng.choice(healthy, size=pool, replace=True)
        self._cursor = 0
        self.root: Coord = system.healthy_coords()[0]

    def _draw(self, k: int) -> np.ndarray:
        """The next ``k`` pool destinations (rolling cursor, wraps)."""
        out = np.take(
            self._pool, np.arange(self._cursor, self._cursor + k), mode="wrap"
        )
        self._cursor = (self._cursor + k) % self._pool.size
        return out

    def reset(self) -> None:
        """Rewind the destination cursor (fresh deterministic run)."""
        self._cursor = 0

    def seed_sends(self, emulator: Emulator) -> None:
        """Queue the initial wave (``width`` messages from the root)."""
        if self.ttl == 0:
            return
        emulator.send_batch(self.root, self._draw(self.width), payload=self.ttl)

    def compute(self, tile: Coord, inbox: list[Message], em: Emulator) -> int:
        forwards = 0
        next_ttl = 0
        for message in inbox:
            ttl = message.payload
            if ttl > 1:
                forwards += 1
                next_ttl = ttl - 1
        if forwards:
            em.send_batch(tile, self._draw(forwards * self.fanout), payload=next_ttl)
        return len(inbox)

    def run(
        self,
        engine: str | None = None,
        max_supersteps: int = 10_000,
    ) -> EmulationStats:
        """Run the wave to quiescence on a fresh emulator."""
        self.reset()
        emulator = Emulator(self.system, engine=engine)
        self.seed_sends(emulator)
        # Mail-driven: only a tile holding part of the wave forwards it.
        return emulator.run(self.compute, max_supersteps=max_supersteps, active=())
