"""Section VIII — waferscale substrate: jog-free routing, stitching, fallback.

Regenerates the substrate-design results: the lightweight router routes
the full inter-chiplet netlist on two signal layers with clean DRC,
boundary wires get the fattened stitch geometry, the edge fan-out fits
400 wires/mm, and the single-routing-layer fallback still yields a
functional system at a 60% shared-memory cost.

The routing bench runs on a 12x12 array (two reticles in each dimension,
so stitching is exercised); the full-wafer bench extracts, routes and
DRCs the 32x32 netlist (1,062,656 nets) in about a second on a 2-vCPU
host, with a tracemalloc peak under 250 MB.
"""

import time
import tracemalloc

import pytest

from repro.config import SystemConfig
from repro.substrate.degraded import degraded_mode_report
from repro.substrate.drc import run_drc
from repro.substrate.fanout import plan_edge_fanout
from repro.substrate.netlist import extract_netlist
from repro.substrate.router import SubstrateRouter
from repro.substrate.stack import default_stack

from conftest import print_series

CFG12 = SystemConfig(rows=12, cols=12)


def test_sec8_jogfree_routing(benchmark):
    nets = extract_netlist(CFG12)
    router = SubstrateRouter(CFG12)

    result = benchmark.pedantic(router.route, args=(nets,), rounds=1, iterations=1)
    drc = run_drc(result)

    rows = [
        ("nets", len(nets)),
        ("routed", result.routed_count),
        ("stitch (fattened) wires", result.stitch_wire_count()),
        ("max channel utilization", f"{result.max_utilization:.2f}"),
        ("total wirelength", f"{result.total_wirelength_mm / 1000:.1f} m"),
        ("DRC", "clean" if drc.clean else f"{len(drc.violations)} violations"),
    ]
    print_series("Sec. VIII substrate routing (12x12)", rows)

    assert result.success
    assert drc.clean
    assert result.stitch_wire_count() > 0   # 12x12 spans reticle boundaries


def test_sec8_full_wafer_routing(benchmark, paper_cfg):
    tracemalloc.start()
    try:
        start = time.perf_counter()
        nets = extract_netlist(paper_cfg)
        router = SubstrateRouter(paper_cfg)
        netlist_s = time.perf_counter() - start
        start = time.perf_counter()
        result = benchmark.pedantic(
            router.route, args=(nets,), rounds=1, iterations=1
        )
        route_s = time.perf_counter() - start
        start = time.perf_counter()
        drc = run_drc(result)
        drc_s = time.perf_counter() - start
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()

    rows = [
        ("nets", f"{len(nets):,}"),
        ("routed", f"{result.routed_count:,}"),
        ("stitch (fattened) wires", f"{result.stitch_wire_count():,}"),
        ("max channel utilization", f"{result.max_utilization:.2f}"),
        ("DRC", "clean" if drc.clean else f"{len(drc.violations)} violations"),
        ("netlist / route / DRC wall (tracemalloc on)",
         f"{netlist_s:.2f} / {route_s:.2f} / {drc_s:.2f} s"),
        ("tracemalloc peak", f"{peak_mb:.0f} MB (bound 250 MB)"),
    ]
    print_series("Sec. VIII substrate routing (32x32 full wafer)", rows)

    assert len(nets) == 1_062_656
    assert result.success and result.routed_count == len(nets)
    assert drc.clean and drc.wires_checked == len(nets)
    assert result.stitch_wire_count() == 90_304
    assert peak_mb < 250


def test_sec8_edge_density(benchmark):
    stack = default_stack()
    density = benchmark(stack.edge_wire_density_per_mm)
    print_series(
        "Edge interconnect density",
        [("wires/mm (2 layers @5um)", f"{density:.0f} (paper: 400)")],
    )
    assert density == pytest.approx(400.0)


def test_sec8_single_layer_fallback(benchmark):
    report = benchmark.pedantic(
        degraded_mode_report, args=(CFG12,), rounds=1, iterations=1
    )
    rows = [
        ("functional system", report.functional),
        ("banks reachable", f"{report.banks_available}/{report.banks_total}"),
        (
            "shared memory loss",
            f"{report.shared_memory_loss_fraction:.0%} (paper: 60%)",
        ),
        ("remaining shared", f"{report.shared_memory_bytes / 2**20:.0f} MB"),
    ]
    print_series("Sec. VIII single-routing-layer fallback", rows)
    assert report.functional
    assert report.shared_memory_loss_fraction == pytest.approx(0.6)


def test_sec8_edge_fanout(benchmark, paper_cfg):
    fanout = benchmark(plan_edge_fanout, paper_cfg)
    rows = [("total edge wires", fanout.total_edge_wires)]
    rows += [(side, wires) for side, wires in fanout.wires_per_side().items()]
    print_series("Sec. VIII edge fan-out", rows)
    assert fanout.density_ok()
