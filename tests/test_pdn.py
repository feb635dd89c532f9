"""Tests for repro.pdn (planes, solver, LDO, decap, delivery)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.errors import ConvergenceError, PdnError
from repro.pdn.decap import DecapModel, paper_decap_model, required_decap_f, transient_droop_v
from repro.pdn.delivery import (
    DeliveryOption,
    DeliveryScheme,
    chosen_scheme,
    compare_delivery_schemes,
)
from repro.pdn.ldo import LdoModel
from repro.pdn.plane import PlaneStack, PowerPlane, extract_plane_stack
from repro.pdn.solver import PdnSolver, solve_pdn


class TestPlane:
    def test_sheet_resistance_scaling(self):
        thin = PowerPlane("t", thickness_um=1.0)
        thick = PowerPlane("T", thickness_um=2.0)
        assert thin.sheet_resistance_ohm_sq == pytest.approx(
            2 * thick.sheet_resistance_ohm_sq
        )

    def test_slot_factor_raises_resistance(self):
        plain = PowerPlane("p", 2.0, slot_factor=1.0)
        slotted = PowerPlane("s", 2.0, slot_factor=2.0)
        assert slotted.sheet_resistance_ohm_sq == pytest.approx(
            2 * plain.sheet_resistance_ohm_sq
        )

    def test_stack_sums_supply_and_return(self):
        stack = extract_plane_stack()
        assert stack.effective_sheet_resistance == pytest.approx(
            stack.vdd.sheet_resistance_ohm_sq + stack.ret.sheet_resistance_ohm_sq
        )

    def test_invalid_plane_rejected(self):
        with pytest.raises(PdnError):
            PowerPlane("bad", thickness_um=0)
        with pytest.raises(PdnError):
            PowerPlane("bad", thickness_um=1, slot_factor=0.5)

    def test_mesh_resistances_aspect(self):
        cfg = SystemConfig()
        r_h, r_v = extract_plane_stack(cfg).mesh_resistances(cfg)
        # Horizontal pitch < vertical pitch, so r_h < r_v.
        assert r_h < r_v


class TestSolverFig2:
    """The Fig. 2 reproduction: 2.5V edge -> ~1.4V centre."""

    def test_edge_to_center_droop(self, paper_cfg):
        solution = solve_pdn(paper_cfg)
        assert solution.max_voltage == pytest.approx(2.5, abs=0.05)
        assert solution.min_voltage == pytest.approx(1.4, abs=0.1)

    def test_total_current_matches_paper(self, paper_cfg):
        solution = solve_pdn(paper_cfg)
        assert solution.total_current_a == pytest.approx(290, rel=0.05)

    def test_supply_power_matches_table1(self, paper_cfg):
        solution = solve_pdn(paper_cfg)
        assert solution.supply_power_w == pytest.approx(725, rel=0.05)

    def test_droop_monotonic_toward_center(self, paper_cfg):
        solution = solve_pdn(paper_cfg)
        cross = solution.center_cross_section()
        half = len(cross) // 2
        first_half = cross[:half]
        # Voltage falls from the west edge toward the middle of the row.
        assert all(np.diff(first_half) < 1e-12)

    def test_symmetry(self, paper_cfg):
        solution = solve_pdn(paper_cfg)
        v = solution.voltages
        np.testing.assert_allclose(v, v[::-1, :], rtol=1e-6)
        np.testing.assert_allclose(v, v[:, ::-1], rtol=1e-6)

    def test_min_voltage_at_center(self, paper_cfg):
        solution = solve_pdn(paper_cfg)
        center_v = solution.voltage_at((16, 16))
        assert center_v == pytest.approx(solution.min_voltage, abs=1e-3)

    def test_droop_profile_shape(self, paper_cfg):
        profile = solve_pdn(paper_cfg).droop_profile()
        assert len(profile) == 1024
        dist, volts = zip(*profile)
        # Larger distance from the edge => lower voltage, statistically.
        assert np.corrcoef(dist, volts)[0, 1] < -0.9


class TestSolverBehaviour:
    def test_ldo_load_model_is_linear_solve(self, small_cfg):
        solution = PdnSolver(small_cfg).solve(load_model="ldo")
        assert solution.iterations == 1
        assert solution.converged

    def test_constant_power_model_converges(self, small_cfg):
        solution = PdnSolver(small_cfg).solve(load_model="constant_power")
        assert solution.converged
        assert solution.iterations >= 2

    def test_constant_power_draws_less_current(self, small_cfg):
        # At a delivered voltage above the FF corner, constant-power loads
        # draw less current than the LDO pass-through model.
        ldo = PdnSolver(small_cfg).solve(load_model="ldo")
        cp = PdnSolver(small_cfg).solve(load_model="constant_power")
        assert cp.total_current_a < ldo.total_current_a

    def test_unknown_load_model_rejected(self, small_cfg):
        with pytest.raises(PdnError):
            PdnSolver(small_cfg).solve(load_model="magic")

    def test_zero_power_gives_flat_supply(self, small_cfg):
        solution = PdnSolver(small_cfg).solve(tile_power_w=0.0)
        np.testing.assert_allclose(
            solution.voltages, small_cfg.edge_supply_voltage, rtol=1e-9
        )

    def test_nonuniform_power_map(self, small_cfg):
        power = np.zeros((8, 8))
        power[4, 4] = 0.35
        solution = PdnSolver(small_cfg).solve(tile_power_w=power)
        assert solution.voltage_at((4, 4)) == solution.min_voltage

    def test_bad_power_map_shape_rejected(self, small_cfg):
        with pytest.raises(PdnError):
            PdnSolver(small_cfg).solve(tile_power_w=np.zeros((3, 3)))

    def test_negative_power_rejected(self, small_cfg):
        with pytest.raises(PdnError):
            PdnSolver(small_cfg).solve(tile_power_w=-1.0)

    @pytest.mark.parametrize("load_model", ["ldo", "constant_power"])
    def test_non_finite_power_rejected(self, tiny_cfg, load_model):
        # A NaN tile used to solve to converged=True with min_voltage=nan
        # (ldo) or raise a misleading ConvergenceError (constant_power).
        solver = PdnSolver(tiny_cfg)
        for bad in (np.nan, np.inf):
            power = np.full((tiny_cfg.rows, tiny_cfg.cols), 0.35)
            power[1, 2] = bad
            with pytest.raises(PdnError, match="tile_power_w"):
                solver.solve(tile_power_w=power, load_model=load_model)

    def test_iteration_cap_raises_instead_of_returning(self, small_cfg):
        solver = PdnSolver(small_cfg)
        with pytest.raises(ConvergenceError, match="did not converge in 1 "):
            solver.solve(load_model="constant_power", max_iterations=1)
        assert solver.solve(load_model="constant_power").converged

    def test_current_conservation(self, small_cfg):
        # Supply power = load power + plane loss, by construction; check
        # the identity holds numerically.
        solution = PdnSolver(small_cfg).solve()
        assert solution.plane_loss_w == pytest.approx(
            solution.supply_power_w - solution.load_power_w
        )
        assert solution.plane_loss_w > 0

    @given(power_mw=st.floats(10, 500))
    @settings(max_examples=10, deadline=None)
    def test_voltage_bounded_by_supply(self, power_mw):
        cfg = SystemConfig(rows=6, cols=6)
        solution = PdnSolver(cfg).solve(tile_power_w=power_mw / 1000.0)
        assert solution.max_voltage <= cfg.edge_supply_voltage + 1e-9
        assert solution.min_voltage < solution.max_voltage

    def test_bigger_load_bigger_droop(self, small_cfg):
        low = PdnSolver(small_cfg).solve(tile_power_w=0.1)
        high = PdnSolver(small_cfg).solve(tile_power_w=0.35)
        assert high.min_voltage < low.min_voltage


class TestLdo:
    def test_nominal_regulation(self):
        ldo = LdoModel()
        assert ldo.regulate(2.5) == pytest.approx(1.1)
        assert ldo.regulate(1.4) == pytest.approx(1.1)

    def test_tracking_range_matches_paper(self):
        ldo = LdoModel()
        assert ldo.in_range(1.4)
        assert ldo.in_range(2.5)
        assert not ldo.in_range(1.3)

    def test_above_range_raises(self):
        with pytest.raises(PdnError):
            LdoModel().regulate(3.0)

    def test_dropout_region(self):
        ldo = LdoModel()
        out = ldo.regulate(1.2)
        assert out == pytest.approx(1.0)

    def test_regulation_band_check(self):
        ldo = LdoModel()
        assert ldo.regulation_ok(1.4)
        assert ldo.regulation_ok(2.5)
        assert not ldo.regulation_ok(1.1)   # deep dropout: out of band

    def test_input_above_tracking_range_is_out_of_band(self):
        ldo = LdoModel()
        # regulate() raises above the tracking range; the band check
        # reports it as a failed band instead.
        assert not ldo.regulation_ok(ldo.v_in_max + 0.1)

    def test_efficiency_is_vout_over_vin(self):
        ldo = LdoModel(quiescent_a=0.0)
        assert ldo.efficiency(2.2, 0.3) == pytest.approx(1.1 / 2.2)

    def test_center_tiles_more_efficient_than_edge(self):
        ldo = LdoModel()
        assert ldo.efficiency(1.4, 0.3) > ldo.efficiency(2.5, 0.3)

    def test_pass_dissipation(self):
        ldo = LdoModel()
        assert ldo.pass_device_dissipation_w(2.1, 0.2) == pytest.approx(
            (2.1 - 1.1) * 0.2
        )

    def test_invalid_ldo_configs(self):
        with pytest.raises(PdnError):
            LdoModel(v_out_nominal=1.5)     # outside its own band
        with pytest.raises(PdnError):
            LdoModel(v_in_min=1.0)          # no dropout headroom
        with pytest.raises(PdnError):
            LdoModel().efficiency(0.0, 0.1)
        with pytest.raises(PdnError):
            LdoModel().efficiency(2.0, -0.1)


class TestDecap:
    def test_paper_tile_lands_near_20nf(self):
        model = paper_decap_model()
        assert model.capacitance_f == pytest.approx(20e-9, rel=0.1)

    def test_droop_charge_balance(self):
        assert transient_droop_v(20e-9, 0.2, 10e-9) == pytest.approx(0.1)

    def test_required_decap_inverse(self):
        c = required_decap_f(0.2, 10e-9, 0.1)
        assert transient_droop_v(c, 0.2, 10e-9) == pytest.approx(0.1)

    def test_paper_decap_meets_band(self):
        assert paper_decap_model().meets_band()

    def test_undersized_decap_fails_band(self):
        model = DecapModel(tile_area_mm2=1.0)
        assert not model.meets_band()

    def test_area_fraction_is_35pct(self):
        model = paper_decap_model()
        assert model.decap_area_mm2 / model.tile_area_mm2 == pytest.approx(0.35)

    def test_invalid_inputs(self):
        with pytest.raises(PdnError):
            transient_droop_v(0.0, 0.1, 1e-9)
        with pytest.raises(PdnError):
            required_decap_f(0.1, 1e-9, 0.0)
        with pytest.raises(PdnError):
            DecapModel(tile_area_mm2=0)

    @given(
        step=st.floats(0.01, 1.0),
        response_ns=st.floats(1.0, 100.0),
        budget=st.floats(0.01, 0.5),
    )
    def test_required_decap_always_sufficient(self, step, response_ns, budget):
        c = required_decap_f(step, response_ns * 1e-9, budget)
        assert transient_droop_v(c, step, response_ns * 1e-9) <= budget * (1 + 1e-9)


class TestDeliveryComparison:
    @pytest.fixture(scope="class")
    def options(self):
        return compare_delivery_schemes(SystemConfig())

    def test_all_three_schemes_present(self, options):
        assert set(options) == set(DeliveryScheme)

    def test_twv_infeasible(self, options):
        assert not options[DeliveryScheme.TWV_BACKSIDE].feasible

    def test_buck_has_area_overhead(self, options):
        assert options[DeliveryScheme.HV_EDGE_BUCK].area_overhead_fraction >= 0.25

    def test_no_feasible_scheme_raises(self, options):
        infeasible = {s: replace(o, feasible=False) for s, o in options.items()}
        with pytest.raises(PdnError, match="no feasible"):
            chosen_scheme(infeasible)

    def test_edge_ldo_keeps_array_regular(self, options):
        assert options[DeliveryScheme.EDGE_LDO].area_overhead_fraction == 0.0

    def test_buck_more_efficient_than_ldo(self, options):
        # The paper accepts the LDO's efficiency loss to avoid the buck's
        # area/complexity; the efficiency ordering must reflect that trade.
        assert (
            options[DeliveryScheme.HV_EDGE_BUCK].end_to_end_efficiency
            > options[DeliveryScheme.EDGE_LDO].end_to_end_efficiency
        )

    def test_paper_choice_rederived(self, options):
        assert chosen_scheme(options) is DeliveryScheme.EDGE_LDO

    def test_edge_ldo_min_voltage_near_1v4(self, options):
        assert options[DeliveryScheme.EDGE_LDO].min_delivered_voltage == pytest.approx(
            1.4, abs=0.1
        )


#: (id, call, message): PDN model inputs with no physical meaning; each
#: must raise PdnError naming the problem.
_MALFORMED_PDN_INPUTS = [
    ("droop-negative-step",
     lambda: transient_droop_v(20e-9, -1.0, 1e-9), "non-negative"),
    ("decap-negative-response",
     lambda: required_decap_f(1.0, -1e-9, 0.05), "non-negative"),
    ("decap-whole-tile", lambda: DecapModel(11.0, area_fraction=1.0),
     "area fraction"),
    ("decap-zero-density", lambda: DecapModel(11.0, density_f_per_mm2=0.0),
     "decap density"),
    ("delivery-efficiency-above-1",
     lambda: DeliveryOption(
         DeliveryScheme.EDGE_LDO, 1.5, 0.0, 1.0, True, "impossible"
     ),
     "efficiency"),
    ("solver-zero-edge-connector",
     lambda: PdnSolver(SystemConfig(rows=4, cols=4), edge_connector_ohm=0.0),
     "edge connector"),
]


@pytest.mark.parametrize(
    "call, message",
    [case[1:] for case in _MALFORMED_PDN_INPUTS],
    ids=[case[0] for case in _MALFORMED_PDN_INPUTS],
)
def test_malformed_pdn_inputs_rejected(call, message):
    with pytest.raises(PdnError, match=message):
        call()
