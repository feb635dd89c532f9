"""Tests for repro.io (cells, ESD, bonding yield, budgets)."""

import pytest
from hypothesis import given, settings

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.io.bonding import (
    BondingYieldModel,
    chiplet_bond_yield,
    expected_faulty_chiplets,
    pad_yield,
)
from repro.io.budget import compute_io_budget, memory_io_budget
from repro.io.cell import IoCellModel
from repro.io.esd import baredie_esd_spec, esd_area_saving_factor, packaged_esd_spec
from repro.verify.strategies import io_counts, pillar_yields


class TestBondingYieldSection5:
    """The Section V headline numbers."""

    def test_single_pillar_chiplet_yield_near_81pct(self):
        y = chiplet_bond_yield(2020, 0.9999, 1)
        assert y == pytest.approx(0.8146, abs=0.01)

    def test_dual_pillar_chiplet_yield_99_998(self):
        y = chiplet_bond_yield(2020, 0.9999, 2)
        assert y == pytest.approx(0.99998, abs=1e-5)

    def test_expected_faulty_single_pillar_hundreds(self):
        n = expected_faulty_chiplets(2048, 2020, 0.9999, 1)
        assert n == pytest.approx(380, rel=0.05)

    def test_expected_faulty_dual_pillar_about_one_or_fewer(self):
        n = expected_faulty_chiplets(2048, 2020, 0.9999, 2)
        assert n <= 1.0

    def test_pad_yield_formula(self):
        assert pad_yield(0.9, 2) == pytest.approx(1 - 0.01)
        assert pad_yield(0.9999, 1) == pytest.approx(0.9999)

    def test_more_pillars_never_hurt(self):
        y1 = pad_yield(0.999, 1)
        y2 = pad_yield(0.999, 2)
        y3 = pad_yield(0.999, 3)
        assert y1 < y2 < y3

    def test_model_redundancy_variant(self):
        model = BondingYieldModel()
        single = model.with_redundancy(1)
        assert single.expected_faulty > model.expected_faulty
        # 99.99% pillars: a two-pillar pad fails only if both do.
        assert model.pad_yield == pytest.approx(1 - 1e-8)
        assert single.pad_yield == pytest.approx(0.9999)

    def test_system_yield_all_good_tiny(self):
        # All 2048 chiplets perfect: possible but that is why the network
        # must tolerate faults.
        model = BondingYieldModel(pillars_per_pad=1)
        assert model.system_yield_all_good < 1e-100

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            pad_yield(0.0, 2)
        with pytest.raises(ConfigError):
            pad_yield(0.5, 0)
        with pytest.raises(ConfigError):
            chiplet_bond_yield(-1, 0.99, 1)
        with pytest.raises(ConfigError):
            BondingYieldModel(chiplet_count=0)

    @given(
        pillar_yield=pillar_yields(),
        ios=io_counts(),
    )
    @settings(max_examples=40)
    def test_redundancy_monotone_property(self, pillar_yield, ios):
        y1 = chiplet_bond_yield(ios, pillar_yield, 1)
        y2 = chiplet_bond_yield(ios, pillar_yield, 2)
        assert 0.0 < y1 <= y2 <= 1.0


class TestIoCell:
    def test_energy_near_paper(self):
        assert IoCellModel().energy_per_bit_j() * 1e12 == pytest.approx(
            0.063, rel=0.05
        )

    def test_cell_fits_under_two_pillar_pad(self):
        cell = IoCellModel()
        assert cell.fits_under_pads(1, 10.0, pad_depth_pillars=2)

    def test_cell_does_not_fit_single_pillar(self):
        # 150um2 > 100um2: the reason each pad gets two pillars.
        cell = IoCellModel()
        assert not cell.fits_under_pads(1, 10.0, pad_depth_pillars=1)

    def test_drive_capability(self):
        cell = IoCellModel()
        assert cell.can_drive(300, 1e9)
        assert cell.can_drive(500, 1e9)
        assert not cell.can_drive(500, 2e9)
        # Longer links derate.
        assert not cell.can_drive(1000, 1e9)
        assert cell.can_drive(1000, 0.5e9)

    def test_total_io_area_below_half_mm2(self):
        # The paper: total I/O area only 0.4mm2.
        area = IoCellModel().total_io_area_mm2(2020)
        assert area < 0.45

    def test_longer_link_more_energy(self):
        cell = IoCellModel()
        assert cell.energy_per_bit_j(500) > cell.energy_per_bit_j(200)

    def test_activity_scales_energy(self):
        cell = IoCellModel()
        assert cell.energy_per_bit_j(300, activity=1.0) == pytest.approx(
            2 * cell.energy_per_bit_j(300, activity=0.5)
        )

    def test_invalid_inputs(self):
        cell = IoCellModel()
        with pytest.raises(ConfigError):
            cell.can_drive(0, 1e9)
        with pytest.raises(ConfigError):
            cell.energy_per_bit_j(300, activity=2.0)
        with pytest.raises(ConfigError):
            cell.total_io_area_mm2(-1)


class TestEsd:
    def test_baredie_spec_is_100v(self):
        assert baredie_esd_spec().hbm_volts == 100.0

    def test_packaged_spec_is_2kv(self):
        assert packaged_esd_spec().hbm_volts == 2000.0

    def test_area_saving_factor_is_20x(self):
        assert esd_area_saving_factor() == pytest.approx(20.0)

    def test_peak_current_scales(self):
        assert packaged_esd_spec().peak_current_a == pytest.approx(
            20 * baredie_esd_spec().peak_current_a
        )

    def test_baredie_clamp_fits_io_cell(self):
        # The stripped-down clamp must fit inside the 150um2 cell.
        assert baredie_esd_spec().clamp_area_um2 < 150.0


class TestBudgets:
    def test_compute_budget_totals_2020(self):
        assert compute_io_budget().total == 2020
        assert compute_io_budget().total_pillars == 2 * 2020

    def test_memory_budget_totals_1250(self):
        assert memory_io_budget().total == 1250

    def test_network_dominates_compute_budget(self):
        budget = compute_io_budget()
        assert budget.network_ios == 1600
        assert budget.network_ios > budget.total / 2

    def test_budgets_fit_perimeter(self):
        assert compute_io_budget().fits_perimeter(10.0)
        assert memory_io_budget().fits_perimeter(10.0)

    def test_budget_scales_with_link_width(self):
        slim = SystemConfig(link_width_bits=100)
        assert compute_io_budget(slim).network_ios == 400

    def test_overflow_detected(self):
        fat = SystemConfig(ios_per_compute_chiplet=500)
        with pytest.raises(ConfigError):
            compute_io_budget(fat)
