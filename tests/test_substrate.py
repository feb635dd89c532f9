"""Tests for repro.substrate (stack, netlist, router, DRC, degraded, fanout)."""

import dataclasses
from collections import Counter

import pytest

from repro.config import SystemConfig
from repro.errors import RoutingError, SubstrateError
from repro.geometry.reticle import ReticlePlan
from repro.substrate.degraded import degraded_mode_report
from repro.substrate.drc import RULES, _drc_per_wire, run_drc
from repro.substrate.fanout import plan_edge_fanout
from repro.substrate.netlist import (
    ChannelKind,
    NetClass,
    _netlist_per_net,
    extract_netlist,
)
from repro.substrate.router import SubstrateRouter, _route_per_net
from repro.substrate.stack import LayerRole, LayerStack, MetalLayer, default_stack
from repro.substrate.stitching import (
    intra_reticle_geometry,
    stitch_geometry,
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

    def test_layer_rules_validated(self):
        def layer(index=1, thickness=2.0, width=2.5, space=2.5):
            return MetalLayer(index, f"M{index}", LayerRole.SIGNAL,
                              thickness, width, space)

        assert layer().pitch_um == 5.0
        with pytest.raises(SubstrateError, match="starts at 1"):
            layer(index=0)
        with pytest.raises(SubstrateError, match="thickness"):
            layer(thickness=0.0)
        with pytest.raises(SubstrateError, match="width/space"):
            layer(space=-1.0)
        with pytest.raises(SubstrateError, match="unique and ordered"):
            LayerStack((layer(index=2), layer(index=1)))

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
        # Stitched wires trade space for width at one constant 5um pitch.
        w1, s1 = intra_reticle_geometry()
        w2, s2 = stitch_geometry()
        assert (w1, s1) == (2.0, 3.0)
        assert (w2, s2) == (3.0, 2.0)
        assert w1 + s1 == w2 + s2


class TestNetlist:
    def test_class_counts(self, cfg6):
        counts = Counter(net.net_class for net in extract_netlist(cfg6))
        # 2 x 6 x 5 inter-tile links of 400 wires each.
        assert counts[NetClass.MESH_LINK] == 2 * 6 * 5 * 400
        assert counts[NetClass.BANK_ESSENTIAL] > 0
        assert counts[NetClass.BANK_EXTENDED] > counts[NetClass.BANK_ESSENTIAL]

    def test_essential_classification(self, cfg6):
        nets = extract_netlist(cfg6)
        for net in nets:
            if net.net_class in (NetClass.MESH_LINK, NetClass.CLOCK, NetClass.TEST):
                assert net.essential
            if net.net_class is NetClass.BANK_EXTENDED:
                assert not net.essential
        assert nets.essential.tolist() == [net.essential for net in nets]

    def test_intra_tile_nets_self_referential(self, cfg6):
        for net in extract_netlist(cfg6):
            if net.channel is ChannelKind.INTRA_TILE:
                assert net.tile_a == net.tile_b
            else:
                assert net.tile_a != net.tile_b

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
        wires = SubstrateRouter(cfg).route(extract_netlist(cfg)).wires
        stitch = wires.crosses_stitch
        assert stitch.any()
        width, space = stitch_geometry()
        assert (wires.width_um[stitch] == width).all()
        assert (wires.space_um[stitch] == space).all()

    def test_capacity_overflow_raises_for_essential(self):
        router = SubstrateRouter(OVERFLOW_CFG)
        with pytest.raises(RoutingError):
            router.route(extract_netlist(OVERFLOW_CFG))


OVERFLOW_CFG = SystemConfig(rows=2, cols=2, link_width_bits=4000,
                            packet_width_bits=100,
                            ios_per_compute_chiplet=20000)


class TestArrayPathOracle:
    """Netlist, route and DRC over arrays against the per-object oracles."""

    @pytest.mark.parametrize(
        "rows, cols, signal_layers",
        [
            (5, 5, 2),      # the design-flow benchmark's array
            (6, 6, 2),      # both layers, no reticle boundary
            (12, 12, 2),    # spans reticles: stitch wires
            (6, 6, 1),      # one layer: extended nets stay unrouted
        ],
        ids=["5x5", "6x6", "12x12-stitch", "6x6-one-layer"],
    )
    def test_matches_oracle(self, rows, cols, signal_layers):
        cfg = SystemConfig(rows=rows, cols=cols)
        nets = extract_netlist(cfg)
        oracle_nets = _netlist_per_net(cfg)
        assert list(nets) == oracle_nets
        assert [nets[i] for i in (0, len(nets) // 2, len(nets) - 1)] == [
            oracle_nets[i] for i in (0, len(nets) // 2, len(nets) - 1)
        ]

        router = SubstrateRouter(cfg, stack=default_stack(signal_layers))
        result = router.route(nets)
        wires, unrouted, utilization = _route_per_net(router, oracle_nets)
        assert list(result.wires) == wires
        assert [result.wires[i] for i in (0, len(wires) - 1)] == [wires[0], wires[-1]]
        assert list(result.unrouted) == unrouted
        assert list(result.channel_utilization.items()) == list(utilization.items())
        assert result.routed_count == len(wires)
        assert result.success == (not unrouted)
        assert result.total_wirelength_mm == sum(w.length_mm for w in wires)
        assert result.stitch_wire_count() == sum(w.crosses_stitch for w in wires)
        if rows == 12:
            assert result.stitch_wire_count() > 0
        if signal_layers == 1:
            assert result.unrouted

        report = run_drc(result)
        assert report == _drc_per_wire(result)
        assert report.clean and report.wires_checked == len(wires)

    def test_overflow_names_same_net(self):
        router = SubstrateRouter(OVERFLOW_CFG)
        with pytest.raises(RoutingError) as kernel:
            router.route(extract_netlist(OVERFLOW_CFG))
        with pytest.raises(RoutingError) as oracle:
            _route_per_net(router, _netlist_per_net(OVERFLOW_CFG))
        assert str(kernel.value) == str(oracle.value)
        assert "essential net mesh_" in str(kernel.value)

    def test_channel_work_done_once(self, monkeypatch):
        # Capacity and reticle crossing are worked out once per
        # (channel, layer), never per net: a per-net rescan fails this
        # without timing anything.
        opened: Counter = Counter()
        capacity_calls: Counter = Counter()
        crossing_calls: Counter = Counter()
        open_channel = SubstrateRouter._open_channel
        channel_capacity = SubstrateRouter.channel_capacity
        crosses_boundary = ReticlePlan.crosses_boundary

        def counted_open(router, net, layer):
            opened[(net.channel_key(), layer)] += 1
            return open_channel(router, net, layer)

        def counted_capacity(router, channel, layer):
            capacity_calls[(channel, layer)] += 1
            return channel_capacity(router, channel, layer)

        def counted_crossing(plan, a, b):
            crossing_calls[(a, b)] += 1
            return crosses_boundary(plan, a, b)

        cfg = SystemConfig(rows=7, cols=7)
        nets = extract_netlist(cfg)
        router = SubstrateRouter(cfg)
        monkeypatch.setattr(SubstrateRouter, "_open_channel", counted_open)
        monkeypatch.setattr(SubstrateRouter, "channel_capacity", counted_capacity)
        monkeypatch.setattr(ReticlePlan, "crosses_boundary", counted_crossing)
        result = router.route(nets)

        assert result.success
        assert set(opened) == set(result.channel_utilization)
        assert max(opened.values()) == 1
        assert sum(capacity_calls.values()) == len(opened)
        assert crossing_calls and max(crossing_calls.values()) == 1


def _tampered(result, i, **changes):
    """``result`` with wire ``i``'s columns changed, leaving ``result`` alone."""
    columns = {}
    for name, value in changes.items():
        column = getattr(result.wires, name).copy()
        column[i] = value(result.wires) if callable(value) else value
        columns[name] = column
    return dataclasses.replace(
        result, wires=dataclasses.replace(result.wires, **columns)
    )


# Each case breaks one wire (wire 1: mesh_h_0_0_1, an intra-reticle wire
# on layer 1 sharing its channel with wire 0) and names the rule that
# must fire.  A callable computes the new value from the untouched wires.
DRC_CASES = {
    "min-width": dict(width_um=0.5, space_um=4.5),
    "stitch-geometry": dict(width_um=3.0, space_um=2.0),
    "stitch-flag": dict(crosses_stitch=True),
    "constant-pitch": dict(space_um=4.0),
    "track-overlap": dict(track=0),
    "degenerate-zero-length": dict(x1_mm=lambda w: w.x0_mm[1]),
    "degenerate-reversed": dict(x0_mm=lambda w: w.x1_mm[1], x1_mm=lambda w: w.x0_mm[1]),
    "degenerate-jog": dict(y1_mm=lambda w: w.y1_mm[1] + 0.1),
    "degenerate-nan": dict(x1_mm=float("nan")),
}
DRC_RULE = {
    "stitch-flag": "stitch-geometry",
    **{case: "degenerate-geometry" for case in DRC_CASES if case.startswith("degenerate")},
}


class TestDrc:
    def test_clean_routing_passes(self, routed6):
        result, _ = routed6
        report = run_drc(result)
        assert report.clean
        assert report.wires_checked == result.routed_count

    @pytest.mark.parametrize("case", list(DRC_CASES))
    def test_tampered_wire_caught(self, routed6, case):
        result, _ = routed6
        assert result.wires[1].net.name == "mesh_h_0_0_1"
        bad = _tampered(result, 1, **DRC_CASES[case])
        report = run_drc(bad)
        rule = DRC_RULE.get(case, case)
        assert rule in report.by_rule()
        assert {v.wire_name for v in report.violations} == {"mesh_h_0_0_1"}
        assert report.violations == _drc_per_wire(bad).violations
        if rule == "track-overlap":
            assert report.violations[0].message == "track shared with mesh_h_0_0_0"
        assert run_drc(result).clean

    def test_every_rule_has_a_case(self):
        assert {DRC_RULE.get(case, case) for case in DRC_CASES} == set(RULES)


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
