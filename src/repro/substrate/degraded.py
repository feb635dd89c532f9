"""Single-routing-layer degraded mode (paper Section VIII).

The substrate yield was unknown, so the chiplet pad rings were designed so
the whole processor still works with only **one** good signal layer: the
inner pad columns carry everything essential (all network links, clocks,
JTAG and two of the five memory banks).  The cost is losing the three
extended banks — 3 of the 5 banks, i.e. 60% of the shared memory
capacity, exactly the figure the paper quotes.

``degraded_mode_report`` routes the wafer with a one-signal-layer stack
and quantifies what survives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SystemConfig
from ..errors import SubstrateError
from .netlist import NET_CLASSES, NetClass, extract_netlist
from .router import RoutingResult, SubstrateRouter
from .stack import default_stack


@dataclass(frozen=True)
class DegradedModeReport:
    """What a single-routing-layer wafer can and cannot do."""

    config: SystemConfig
    routing: RoutingResult
    banks_available: int
    banks_total: int
    network_intact: bool
    clock_intact: bool
    test_intact: bool

    @property
    def functional(self) -> bool:
        """A working (if reduced) processor system?"""
        return self.network_intact and self.clock_intact and self.test_intact

    @property
    def shared_memory_loss_fraction(self) -> float:
        """Fraction of memory capacity lost (the paper's 60%).

        The paper accounts this over all five banks of the memory chiplet:
        three of five become unreachable, a 60% reduction.
        """
        lost = self.banks_total - self.banks_available
        return lost / self.banks_total

    @property
    def shared_memory_bytes(self) -> int:
        """Remaining globally-shared capacity."""
        shared = min(self.banks_available, self.config.shared_banks_per_tile)
        return self.config.tiles * shared * self.config.bank_bytes


def degraded_mode_report(config: SystemConfig | None = None) -> DegradedModeReport:
    """Route with one signal layer and summarise the degraded system."""
    cfg = config or SystemConfig()
    router = SubstrateRouter(cfg, stack=default_stack(signal_layers=1))
    nets = extract_netlist(cfg)
    result = router.route(nets)

    unrouted_classes = {
        NET_CLASSES[code] for code in np.unique(result.unrouted.net_class).tolist()
    }
    for essential in (NetClass.MESH_LINK, NetClass.CLOCK, NetClass.TEST):
        if essential in unrouted_classes:
            raise SubstrateError(
                f"degraded mode must keep {essential.value} nets routable"
            )

    # Of the five banks, the two on the inner pad columns stay reachable;
    # the extended banks' nets are unroutable.
    essential_banks = 2

    return DegradedModeReport(
        config=cfg,
        routing=result,
        banks_available=essential_banks,
        banks_total=cfg.memory_banks_per_tile,
        network_intact=NetClass.MESH_LINK not in unrouted_classes,
        clock_intact=NetClass.CLOCK not in unrouted_classes,
        test_intact=NetClass.TEST not in unrouted_classes,
    )
