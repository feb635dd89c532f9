"""Tests for repro.substrate (stack, netlist, router, DRC, degraded, fanout)."""

from collections import Counter

import pytest

from repro.config import SystemConfig
from repro.errors import DrcError, RoutingError, SubstrateError
from repro.geometry.reticle import ReticlePlan
from repro.substrate.degraded import degraded_mode_report
from repro.substrate.drc import assert_clean, run_drc
from repro.substrate.fanout import plan_edge_fanout
from repro.substrate.netlist import (
    ChannelKind,
    InterChipletNet,
    NetClass,
    extract_netlist,
    netlist_summary,
)
from repro.substrate.router import SubstrateRouter, _route_per_net
from repro.substrate.stack import LayerRole, default_stack
from repro.substrate.stitching import (
    check_constant_pitch,
    intra_reticle_geometry,
    overlay_tolerance_um,
    stitch_geometry,
    wire_geometry_for_net,
)


@pytest.fixture(scope="module")
def cfg6():
    return SystemConfig(rows=6, cols=6)


@pytest.fixture(scope="module")
def routed6(cfg6):
    router = SubstrateRouter(cfg6)
    nets = extract_netlist(cfg6)
    return router.route(nets), nets


class TestStack:
    def test_four_layers_two_roles(self):
        stack = default_stack()
        assert len(stack.layers) == 4
        assert len(stack.power_layers) == 2
        assert len(stack.signal_layers) == 2

    def test_edge_density_400_per_mm(self):
        assert default_stack().edge_wire_density_per_mm() == pytest.approx(400.0)

    def test_signal_pitch_5um(self):
        for layer in default_stack().signal_layers:
            assert layer.pitch_um == pytest.approx(5.0)

    def test_single_layer_stack(self):
        stack = default_stack(signal_layers=1)
        assert len(stack.signal_layers) == 1
        assert stack.edge_wire_density_per_mm() == pytest.approx(200.0)

    def test_bad_layer_index(self):
        with pytest.raises(SubstrateError):
            default_stack().signal_layer(3)

    def test_invalid_layer_count(self):
        with pytest.raises(SubstrateError):
            default_stack(signal_layers=0)

    def test_signal_layers_computed_once(self):
        stack = default_stack()
        assert stack.signal_layers is stack.signal_layers
        assert all(l.role is LayerRole.SIGNAL for l in stack.signal_layers)
        assert stack.signal_layer(2) is stack.signal_layers[1]

    def test_cached_layers_leave_identity_alone(self):
        a, b = default_stack(), default_stack()
        assert a == b and hash(a) == hash(b)
        assert a != default_stack(signal_layers=1)
        assert "_signal_layers" not in repr(a)


class TestStitching:
    def test_constant_pitch_rule(self):
        check_constant_pitch()
        w1, s1 = intra_reticle_geometry()
        w2, s2 = stitch_geometry()
        assert (w1, s1) == (2.0, 3.0)
        assert (w2, s2) == (3.0, 2.0)

    def test_geometry_selection(self):
        assert wire_geometry_for_net(True) == stitch_geometry()
        assert wire_geometry_for_net(False) == intra_reticle_geometry()

    def test_fatter_wire_more_overlay_tolerance(self):
        assert overlay_tolerance_um(3.0) > overlay_tolerance_um(2.0)

    def test_overlay_tolerance_floor(self):
        assert overlay_tolerance_um(1.0, min_overlap_um=1.5) == 0.0


class TestNetlist:
    def test_summary_classes(self, cfg6):
        summary = netlist_summary(extract_netlist(cfg6))
        assert summary["mesh_link"] == 2 * 6 * 5 * 400
        assert summary["bank_essential"] > 0
        assert summary["bank_extended"] > summary["bank_essential"]
        assert summary["total"] == sum(v for k, v in summary.items() if k != "total")

    def test_essential_classification(self, cfg6):
        nets = extract_netlist(cfg6)
        for net in nets:
            if net.net_class in (NetClass.MESH_LINK, NetClass.CLOCK, NetClass.TEST):
                assert net.essential
            if net.net_class is NetClass.BANK_EXTENDED:
                assert not net.essential

    def test_intra_tile_nets_self_referential(self, cfg6):
        for net in extract_netlist(cfg6):
            if net.channel is ChannelKind.INTRA_TILE:
                assert net.tile_a == net.tile_b
            else:
                assert net.tile_a != net.tile_b

    def test_empty_summary_rejected(self):
        with pytest.raises(SubstrateError):
            netlist_summary([])


class TestRouter:
    def test_all_nets_route_with_two_layers(self, routed6):
        result, nets = routed6
        assert result.success
        assert result.routed_count == len(nets)

    def test_extended_nets_on_layer_2(self, routed6):
        result, _ = routed6
        for wire in result.wires:
            if wire.net.net_class is NetClass.BANK_EXTENDED:
                assert wire.layer == 2
            if wire.net.essential:
                assert wire.layer == 1

    def test_no_channel_overflow(self, routed6):
        result, _ = routed6
        assert result.max_utilization <= 1.0

    def test_wirelength_positive(self, routed6):
        result, _ = routed6
        assert result.total_wirelength_mm > 0
        for wire in result.wires:
            assert wire.length_mm >= 0

    def test_stitch_wires_on_reticle_boundaries(self):
        # 12x12 spans two reticle columns (12-wide) and two rows (6-tall).
        cfg = SystemConfig(rows=12, cols=12)
        stitches = [
            w
            for w in SubstrateRouter(cfg).route(extract_netlist(cfg)).wires
            if w.crosses_stitch
        ]
        assert stitches
        for wire in stitches:
            assert (wire.width_um, wire.space_um) == stitch_geometry()

    def test_capacity_overflow_raises_for_essential(self):
        router = SubstrateRouter(OVERFLOW_CFG)
        with pytest.raises(RoutingError):
            router.route(extract_netlist(OVERFLOW_CFG))


OVERFLOW_CFG = SystemConfig(rows=2, cols=2, link_width_bits=4000,
                            packet_width_bits=100,
                            ios_per_compute_chiplet=20000)


def _routing_fields(result):
    """Everything a routing result says, in order."""
    return (
        result.wires,
        result.unrouted,
        list(result.channel_utilization.items()),
        result.signal_layers,
    )


class TestRouterOracle:
    """``route`` (per-channel records) against ``_route_per_net``."""

    @pytest.mark.parametrize(
        "rows, cols, signal_layers",
        [
            (6, 6, 2),      # both layers, no reticle boundary
            (12, 12, 2),    # spans reticles: stitch wires
            (6, 6, 1),      # one layer: extended nets stay unrouted
        ],
        ids=["6x6", "12x12-stitch", "6x6-one-layer"],
    )
    def test_route_matches_oracle(self, rows, cols, signal_layers):
        cfg = SystemConfig(rows=rows, cols=cols)
        router = SubstrateRouter(cfg, stack=default_stack(signal_layers))
        nets = extract_netlist(cfg)
        result = router.route(nets)
        expected = _route_per_net(router, nets)
        assert _routing_fields(result) == _routing_fields(expected)
        if rows == 12:
            assert result.stitch_wire_count() > 0
        if signal_layers == 1:
            assert result.unrouted

    def test_overflow_names_same_net(self):
        router = SubstrateRouter(OVERFLOW_CFG)
        nets = extract_netlist(OVERFLOW_CFG)
        with pytest.raises(RoutingError) as kernel:
            router.route(nets)
        with pytest.raises(RoutingError) as oracle:
            _route_per_net(router, nets)
        assert str(kernel.value) == str(oracle.value)

    def test_channel_work_done_once(self, monkeypatch):
        # Per-channel work (capacity, reticle crossing) once per
        # (channel, layer) and channel_key once per net: a rescan of the
        # wires per channel fails this without timing anything.
        calls = {"channel_key": 0}
        capacity_calls: Counter = Counter()
        crossing_calls: Counter = Counter()
        channel_key = InterChipletNet.channel_key
        channel_capacity = SubstrateRouter.channel_capacity
        crosses_boundary = ReticlePlan.crosses_boundary

        def counted_key(net):
            calls["channel_key"] += 1
            return channel_key(net)

        def counted_capacity(router, net, layer):
            capacity_calls[(net.channel, net.tile_a, net.tile_b, layer)] += 1
            return channel_capacity(router, net, layer)

        def counted_crossing(plan, a, b):
            crossing_calls[(a, b)] += 1
            return crosses_boundary(plan, a, b)

        cfg = SystemConfig(rows=7, cols=7)
        nets = extract_netlist(cfg)
        router = SubstrateRouter(cfg)
        monkeypatch.setattr(InterChipletNet, "channel_key", counted_key)
        monkeypatch.setattr(SubstrateRouter, "channel_capacity", counted_capacity)
        monkeypatch.setattr(ReticlePlan, "crosses_boundary", counted_crossing)
        result = router.route(nets)

        assert result.success
        assert calls["channel_key"] <= len(nets)
        assert len(capacity_calls) == len(result.channel_utilization)
        assert max(capacity_calls.values()) == 1
        assert crossing_calls and max(crossing_calls.values()) == 1


class TestDrc:
    def test_clean_routing_passes(self, routed6):
        result, _ = routed6
        report = run_drc(result)
        assert report.clean
        assert report.wires_checked == result.routed_count
        assert_clean(report)

    def test_tampered_wire_caught(self, routed6):
        import dataclasses

        result, _ = routed6
        bad_wire = dataclasses.replace(result.wires[0], width_um=0.5, space_um=4.5)
        tampered = dataclasses.replace(result) if False else result
        saved = result.wires[0]
        result.wires[0] = bad_wire
        try:
            report = run_drc(result)
            assert not report.clean
            assert "min-width" in report.by_rule()
            with pytest.raises(DrcError):
                assert_clean(report)
        finally:
            result.wires[0] = saved

    def test_track_overlap_caught(self, routed6):
        import dataclasses

        result, _ = routed6
        dup = dataclasses.replace(result.wires[1], track=result.wires[0].track,
                                  net=result.wires[0].net)
        result.wires.append(dup)
        try:
            report = run_drc(result)
            assert "track-overlap" in report.by_rule()
        finally:
            result.wires.pop()


class TestDegradedMode:
    def test_single_layer_still_functional(self, cfg6):
        report = degraded_mode_report(cfg6)
        assert report.functional
        assert report.network_intact and report.clock_intact and report.test_intact

    def test_60pct_memory_loss(self, cfg6):
        report = degraded_mode_report(cfg6)
        assert report.shared_memory_loss_fraction == pytest.approx(0.6)

    def test_remaining_shared_capacity(self, cfg6):
        report = degraded_mode_report(cfg6)
        assert report.shared_memory_bytes == 36 * 2 * 128 * 1024

    def test_unrouted_are_only_extended_banks(self, cfg6):
        report = degraded_mode_report(cfg6)
        assert report.routing.unrouted
        assert all(
            n.net_class is NetClass.BANK_EXTENDED for n in report.routing.unrouted
        )


class TestFanout:
    def test_plan_builds_and_meets_density(self, cfg6):
        fanout = plan_edge_fanout(cfg6)
        assert fanout.density_ok()
        assert fanout.total_edge_wires > 0

    def test_row_chain_ends_have_jtag(self, cfg6):
        fanout = plan_edge_fanout(cfg6)
        west_bundles = [b for b in fanout.bundles if b.tile[1] == 0]
        assert all(b.jtag_signals > 0 for b in west_bundles)

    def test_sides_partition_bundles(self, cfg6):
        fanout = plan_edge_fanout(cfg6)
        assert sum(fanout.wires_per_side().values()) == fanout.total_edge_wires

    def test_full_wafer_fanout(self, paper_cfg):
        assert plan_edge_fanout(paper_cfg).density_ok()


class TestConnectors:
    def test_paper_config_feasible(self, paper_cfg):
        from repro.substrate.connectors import plan_connectors

        plan = plan_connectors(paper_cfg)
        assert plan.feasible
        assert 0.0 < plan.utilization <= 1.0

    def test_power_pins_cover_290a(self, paper_cfg):
        from repro.substrate.connectors import plan_connectors

        plan = plan_connectors(paper_cfg)
        assert plan.power_pins * plan.technology.amps_per_power_pin >= 290

    def test_signal_pins_cover_row_chains(self, paper_cfg):
        from repro.substrate.connectors import plan_connectors

        plan = plan_connectors(paper_cfg)
        assert plan.signal_pins >= 32 * 2 * 6

    def test_weak_connector_infeasible(self, paper_cfg):
        from repro.substrate.connectors import ConnectorTechnology, plan_connectors

        weak = ConnectorTechnology(
            pin_pitch_mm=4.0, amps_per_power_pin=0.5, rows=1
        )
        plan = plan_connectors(paper_cfg, weak)
        assert not plan.feasible

    def test_invalid_technology(self):
        from repro.substrate.connectors import ConnectorTechnology

        with pytest.raises(SubstrateError):
            ConnectorTechnology(pin_pitch_mm=0)
        with pytest.raises(SubstrateError):
            ConnectorTechnology(rows=0)

    def test_tiny_edge_rejected(self):
        from repro.substrate.connectors import ConnectorTechnology

        tech = ConnectorTechnology(body_overhead_mm=100.0)
        with pytest.raises(SubstrateError):
            tech.pins_per_edge(50.0)
