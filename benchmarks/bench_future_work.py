"""The paper's declared future work, quantified.

Footnote 2 (deep-trench substrate decap), footnote 4 (sophisticated
fault-tolerant routing, ref [18] = odd-even turn model), Section III's
deferred TWV power delivery, and the closing line's "higher-power
waferscale systems" (thermal + delivery scaling).
"""

import pytest

from repro.config import SystemConfig
from repro.clock.cdc import worst_chain_analysis
from repro.noc.dualnetwork import DualNetwork
from repro.noc.faults import FaultMap
from repro.noc.oddeven import (
    compare_routing_schemes,
    odd_even_path,
    path_respects_turn_model,
)
from repro.pdn.dtc import dtc_upgrade_summary
from repro.pdn.twv import max_tile_power_w, solve_twv_delivery
from repro.thermal.limits import max_power_per_tile_w, system_power_budget_w

from conftest import print_series


def test_futurework_odd_even_routing(benchmark):
    """Footnote 4: adaptive routing beyond the dual-DoR scheme."""
    cfg = SystemConfig(rows=16, cols=16)
    results = benchmark.pedantic(
        compare_routing_schemes,
        args=(cfg, [2, 4, 6]),
        kwargs={"trials": 8, "seed": 3},
        rounds=1,
        iterations=1,
    )
    rows = [("faults", "single DoR %", "dual DoR %", "odd-even %")]
    rows += [
        (
            int(r["fault_count"]),
            f"{r['single_dor_pct']:.2f}",
            f"{r['dual_dor_pct']:.3f}",
            f"{r['odd_even_pct']:.3f}",
        )
        for r in results
    ]
    print_series("Routing-scheme comparison (16x16)", rows)
    for r in results:
        assert r["odd_even_pct"] <= r["dual_dor_pct"] + 1e-9
        assert r["dual_dor_pct"] < r["single_dor_pct"]


def test_futurework_twv_power_scaling(benchmark, paper_cfg):
    """Section III's deferred option: what TWV delivery would buy."""

    def study():
        edge_limit = max_tile_power_w(paper_cfg, scheme="edge")
        twv_limit = max_tile_power_w(paper_cfg, scheme="twv")
        delivery = solve_twv_delivery(paper_cfg)
        return edge_limit, twv_limit, delivery

    edge_limit, twv_limit, delivery = benchmark.pedantic(
        study, rounds=1, iterations=1
    )
    rows = [
        ("edge-delivery tile power limit", f"{edge_limit * 1e3:.0f} mW "
         "(the prototype's 350mW design point)"),
        ("TWV tile power limit", f">= {twv_limit:.1f} W"),
        ("TWV droop at 350mW", f"{delivery.tile_droop_v * 1e3:.2f} mV"),
        ("TWV vias per tile (5% area)", delivery.vias_per_tile),
    ]
    print_series("TWV backside power delivery", rows)
    assert edge_limit == pytest.approx(0.35, rel=0.05)
    assert twv_limit > 10 * edge_limit


def test_futurework_dtc_upgrade(benchmark, paper_cfg):
    """Footnote 2: deep-trench caps in the Si-IF."""
    summary = benchmark(dtc_upgrade_summary, paper_cfg)
    rows = [
        ("DTC capacitance per tile", f"{summary['dtc_capacitance_nf']:.0f} nF "
         "(vs 20 nF on-chip MOS)"),
        ("capacitance gain", f"{summary['capacitance_gain_x']:.0f}x"),
        ("transient droop", f"{summary['droop_mv']:.1f} mV (budget 100)"),
        ("chiplet area reclaimed", f"{summary['reclaimed_chiplet_area_mm2']:.1f} "
         "mm2/tile (of 11.0)"),
    ]
    print_series("Deep-trench decap upgrade", rows)
    assert summary["capacitance_gain_x"] > 10
    assert summary["droop_mv"] < 100


def test_futurework_thermal_envelope(benchmark, paper_cfg):
    """Closing line: design methods for higher-power waferscale systems."""

    def study():
        return (
            max_power_per_tile_w(paper_cfg),
            system_power_budget_w(paper_cfg),
        )

    tile_limit, system_budget = benchmark.pedantic(study, rounds=1, iterations=1)
    rows = [
        ("prototype tile power", "0.35 W (sub-kW system)"),
        ("thermal tile-power limit", f"{tile_limit:.1f} W (cold plate, Tj 105C)"),
        ("thermal system budget", f"{system_budget / 1e3:.1f} kW"),
        ("the actual wall", "edge power delivery (0.35 W/tile), not thermals"),
    ]
    print_series("Higher-power scaling envelope", rows)
    assert tile_limit > 1.0
    assert system_budget > 1_000.0


def test_futurework_adaptive_wall_paths(benchmark):
    """Footnote 4 at path level: odd-even routes round a fault wall.

    On a fault map containing a two-deep wall, the dual-DoR scheme has no
    usable network for the same-row pairs crossing it (no path on either
    L), while the odd-even turn model finds a turn-legal detour in both
    directions.  Deadlock freedom of those routes is Chiu's turn-model
    theorem (ref [18]): every route that obeys the two odd-even rules is
    deadlock-free without virtual channels, so a turn-legal path is the
    whole obligation.
    """
    cfg = SystemConfig(rows=8, cols=8)
    fmap = FaultMap(cfg, frozenset({(0, 4), (1, 4)}))
    walled = [((0, c), (0, 7)) for c in range(4)]
    pairs = walled + [((r, 1), (r, 6)) for r in (2, 5)]

    def route_all():
        dual = DualNetwork(fmap)
        return [
            (
                src,
                dst,
                odd_even_path(src, dst, fmap),
                odd_even_path(dst, src, fmap),
                dual.usable_networks(src, dst),
            )
            for src, dst in pairs
        ]

    routes = benchmark.pedantic(route_all, rounds=1, iterations=1)
    for src, dst, there, back, usable in routes:
        for path in (there, back):
            assert path is not None, (src, dst)
            assert path_respects_turn_model(path), path
        assert there[0] == src and there[-1] == dst
        assert back[0] == dst and back[-1] == src
        if (src, dst) in walled:
            assert usable == [], (src, dst, usable)
        else:
            assert len(usable) == 2, (src, dst, usable)
    rows = [("pair", "odd-even hops (there/back)", "dual-DoR usable networks")]
    rows += [
        (
            f"{src}->{dst}",
            f"{len(there) - 1}/{len(back) - 1}",
            ", ".join(n.name for n in usable) or "none",
        )
        for src, dst, there, back, usable in routes
    ]
    print_series("Odd-even vs dual-DoR under a fault wall (path level)", rows)


def test_futurework_cdc_analysis(benchmark):
    """Footnote 3 quantified: why async FIFOs, and how small they can be."""
    analysis = benchmark(worst_chain_analysis)
    rows = [
        ("worst chain depth", f"{analysis['hops']:.0f} hops"),
        ("accumulated phase delay", f"{analysis['phase_delay_ns']:.1f} ns "
         f"({analysis['phase_delay_cycles']:.1f} cycles)"),
        ("peak accumulated jitter", f"{analysis['peak_jitter_ps']:.0f} ps "
         "(budget 100 ps)"),
        ("synchronous crossing viable", bool(analysis["synchronous_viable"])),
        ("async FIFO depth needed", f"{analysis['fifo_depth']:.0f} entries"),
        ("crossing latency", f"{analysis['crossing_latency_cycles']:.0f} cycles"),
    ]
    print_series("Clock-domain-crossing budget (footnote 3)", rows)
    assert analysis["synchronous_viable"] == 0.0    # sync would fail...
    assert analysis["fifo_depth"] <= 16             # ...async is cheap
