"""Kernel-software network management (paper Section VI).

The hardware gives every pair of tiles up to two paths; *software* decides
which to use.  After bring-up the fault map is known, and the kernel:

1. assigns each communicating source-destination pair to one network —
   pairs with both paths available are spread so the two networks carry
   balanced load; pairs with one usable path get that network; packet
   ordering is preserved by never splitting a pair across networks;
2. for pairs with *no* clear path, optionally routes via an **intermediate
   tile**: the packet travels src -> intermediate -> dst (the response
   retraces the same two legs), at the cost of the intermediate tile's
   cores spending cycles forwarding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import Coord
from .connectivity import _shared_table
from .dualnetwork import DualNetwork, NetworkId
from .faults import FaultMap
from .routing import dor_path, path_is_clear


@dataclass(frozen=True)
class NetworkAssignment:
    """The kernel's routing decision for one source-destination pair."""

    src: Coord
    dst: Coord
    network: NetworkId | None           # None => needs detour or unreachable
    detour_via: Coord | None = None     # intermediate tile, if detoured
    reachable: bool = True

    @property
    def is_detour(self) -> bool:
        """True when the pair communicates through an intermediate tile."""
        return self.detour_via is not None


class KernelRouter:
    """Fault-map-aware pair-to-network assignment (the paper's kernel role)."""

    def __init__(self, fault_map: FaultMap):
        self.fault_map = fault_map
        self.dual = DualNetwork(fault_map)
        self._load = {NetworkId.XY: 0, NetworkId.YX: 0}
        self._assignments: dict[tuple[Coord, Coord], NetworkAssignment] = {}

    @property
    def network_load(self) -> dict[NetworkId, int]:
        """Pairs assigned to each network so far."""
        return dict(self._load)

    def assign(self, src: Coord, dst: Coord, allow_detour: bool = True) -> NetworkAssignment:
        """Assign a pair to a network (cached — ordering must be stable).

        All traffic of a pair stays on one network so packets arrive in
        order; both-path pairs go to the currently less-loaded network.
        A pair with no usable network gets its detour tile when
        ``allow_detour`` is set and is unreachable otherwise.  Only the
        network decision is cached, so the answer never depends on the
        ``allow_detour`` of earlier calls.
        """
        key = (src, dst)
        assignment = self._assignments.get(key)
        if assignment is None:
            assignment = self._assignments[key] = self._assign_network(src, dst)
        if assignment.network is None and allow_detour:
            via = self.find_detour(src, dst)
            if via is not None:
                return NetworkAssignment(src, dst, None, detour_via=via)
        return assignment

    def _assign_network(self, src: Coord, dst: Coord) -> NetworkAssignment:
        if self.fault_map.is_faulty(src) or self.fault_map.is_faulty(dst):
            return NetworkAssignment(src, dst, None, reachable=False)
        usable = self.dual.usable_networks(src, dst)
        if not usable:
            return NetworkAssignment(src, dst, None, reachable=False)
        if len(usable) == 2:
            network = min(NetworkId, key=lambda n: self._load[n])
        else:
            network = usable[0]
        self._load[network] += 1
        return NetworkAssignment(src, dst, network)

    def find_detour(self, src: Coord, dst: Coord) -> Coord | None:
        """An intermediate tile making both legs round-trippable.

        Picks the healthy tile minimising total hop count among candidates
        where ``src->via`` and ``via->dst`` each complete on some network,
        the earliest row-major one on ties.  Reads the fault map's shared
        route table (:func:`~repro.noc.connectivity._shared_table`); only
        blocked pairs get here, so a router that never meets one builds
        no pair matrix.
        """
        # is_faulty validates both coordinates before the table is touched.
        if self.fault_map.is_faulty(src) or self.fault_map.is_faulty(dst):
            return None
        table = _shared_table(self.fault_map)
        cols = self.fault_map.config.cols
        key = (src[0] * cols + src[1]) * table.n + dst[0] * cols + dst[1]
        via, _ = table.detour(key)
        return None if via is None else divmod(via, cols)

    def assign_all_pairs(self, allow_detour: bool = False) -> "KernelReport":
        """Assign every healthy ordered pair; summarise reachability/balance.

        ``allow_detour=False`` by default: pairs without a usable
        network then count as unreachable, the dual network's own
        reachability (the Fig. 7 bench and the ablation's no-detour
        arm).  Pass ``True`` to count the pairs the kernel still serves
        through a detour tile; each one is a shared route-table lookup.
        """
        healthy = self.fault_map.healthy_tiles()
        direct = detoured = unreachable = 0
        for src in healthy:
            for dst in healthy:
                if src == dst:
                    continue
                a = self.assign(src, dst, allow_detour=allow_detour)
                if a.network is not None:
                    direct += 1
                elif a.is_detour:
                    detoured += 1
                else:
                    unreachable += 1
        return KernelReport(
            direct_pairs=direct,
            detoured_pairs=detoured,
            unreachable_pairs=unreachable,
            load=self.network_load,
        )


def _round_trip_walk(fault_map: FaultMap, src: Coord, dst: Coord) -> bool:
    """Round trip on some network, by walking both legs' DoR paths."""
    return any(
        path_is_clear(dor_path(src, dst, n.policy), fault_map)
        and path_is_clear(dor_path(dst, src, n.complement.policy), fault_map)
        for n in NetworkId
    )


def _find_detour_reference(
    fault_map: FaultMap, src: Coord, dst: Coord
) -> Coord | None:
    """Per-tile scalar detour search (test oracle for the route table).

    Walks every healthy tile as a candidate, checks both legs by walking
    their request and response paths (:func:`_round_trip_walk`, not the
    segment tables behind :meth:`DualNetwork.connected`), and keeps the
    first tile of minimal total hop count.  No runtime path calls it.
    """
    best: Coord | None = None
    best_cost = None
    for via in fault_map.healthy_tiles():
        if via in (src, dst):
            continue
        if not _round_trip_walk(fault_map, src, via):
            continue
        if not _round_trip_walk(fault_map, via, dst):
            continue
        cost = (
            abs(via[0] - src[0]) + abs(via[1] - src[1])
            + abs(dst[0] - via[0]) + abs(dst[1] - via[1])
        )
        if best_cost is None or cost < best_cost:
            best, best_cost = via, cost
    return best


@dataclass(frozen=True)
class KernelReport:
    """Summary of an all-pairs kernel assignment."""

    direct_pairs: int
    detoured_pairs: int
    unreachable_pairs: int
    load: dict[NetworkId, int] = field(default_factory=dict)

    @property
    def total_pairs(self) -> int:
        """All healthy ordered pairs."""
        return self.direct_pairs + self.detoured_pairs + self.unreachable_pairs

    @property
    def balance(self) -> float:
        """Load ratio between the two networks (1.0 = perfectly balanced)."""
        xy = self.load.get(NetworkId.XY, 0)
        yx = self.load.get(NetworkId.YX, 0)
        if max(xy, yx) == 0:
            return 1.0
        return min(xy, yx) / max(xy, yx)
