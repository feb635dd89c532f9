"""The dual-DoR network and request/response complementarity (Fig. 7).

The wafer carries two physically independent mesh networks: network 0
routes X-Y, network 1 routes Y-X.  Request/response pairing is baked into
the router hardware: a request sent on one network returns its response on
the *complementary* network.  Because the Y-X path from B to A visits
exactly the tiles of the X-Y path from A to B (in reverse), the response
retraces the request's path — so two-way communication works whenever one
non-faulty path exists in either orientation, and request/response cycles
cannot deadlock against each other.

So a round trip on the X-Y network visits exactly the X-Y L from src to
dst, and one on the Y-X network the X-Y L from dst to src.
:meth:`DualNetwork.round_trip_ok` answers from the fault map's per-row and
per-column segment tables (:func:`~repro.noc.connectivity._segment_tables`)
instead of walking either path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..config import Coord, SystemConfig
from ..errors import RoutingError
from .connectivity import _segment_tables
from .faults import FaultMap
from .routing import RoutingPolicy, dor_path


class NetworkId(enum.Enum):
    """The two physical networks on the wafer."""

    XY = 0
    YX = 1

    @property
    def policy(self) -> RoutingPolicy:
        """The dimension order this network implements."""
        return RoutingPolicy.XY if self is NetworkId.XY else RoutingPolicy.YX

    @property
    def complement(self) -> "NetworkId":
        """The network carrying responses to this network's requests."""
        return NetworkId.YX if self is NetworkId.XY else NetworkId.XY


@dataclass(frozen=True)
class DualNetwork:
    """Round-trip view of the two networks over one fault map."""

    fault_map: FaultMap

    @property
    def config(self) -> SystemConfig:
        """The underlying system configuration."""
        return self.fault_map.config

    @cached_property
    def _segments(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column segment fault tables, built once per network."""
        return _segment_tables(self.fault_map.as_bool_array())

    def round_trip_ok(self, src: Coord, dst: Coord, network: NetworkId) -> bool:
        """Can a request on ``network`` and its response both complete?

        Both legs visit one X-Y L: ``src -> dst`` on the X-Y network,
        ``dst -> src`` on the Y-X network (module docstring), so the
        answer is one lookup in each segment table.
        """
        config = self.config
        config.validate_coord(src)
        config.validate_coord(dst)
        (r1, c1), (r2, c2) = (src, dst) if network is NetworkId.XY else (dst, src)
        tbl_row, tbl_col = self._segments
        return not (tbl_row[r1, c1, c2] or tbl_col[r1, r2, c2])

    def usable_networks(self, src: Coord, dst: Coord) -> list[NetworkId]:
        """Networks on which the full request/response round trip works."""
        return [n for n in NetworkId if self.round_trip_ok(src, dst, n)]

    def connected(self, src: Coord, dst: Coord) -> bool:
        """True when at least one round trip is possible."""
        return bool(self.usable_networks(src, dst))

    def pick_network(self, src: Coord, dst: Coord) -> NetworkId:
        """First usable network (kernel policy lives in :mod:`.kernel`)."""
        usable = self.usable_networks(src, dst)
        if not usable:
            raise RoutingError(f"no usable network between {src} and {dst}")
        return usable[0]


def response_retraces_request(src: Coord, dst: Coord, network: NetworkId) -> bool:
    """Verify the Fig. 7 property: the response visits the request's tiles.

    The X-Y path A->B and the Y-X path B->A traverse the same set of tiles
    (the same L-shaped route walked from opposite ends).
    """
    req = set(dor_path(src, dst, network.policy))
    rsp = set(dor_path(dst, src, network.complement.policy))
    return req == rsp
