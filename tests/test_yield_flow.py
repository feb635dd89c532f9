"""Tests for repro.yieldmodel and the top-level flow/report layer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.errors import ConfigError, ReproError
from repro.flow.designer import run_design_flow
from repro.flow.report import table1_report
from repro.yieldmodel.chiplet_yield import (
    DefectModel,
    die_yield,
    known_good_die_rate,
)
from repro.yieldmodel.system_yield import compare_monolithic_vs_chiplet


class TestDieYield:
    def test_small_die_high_yield(self):
        assert die_yield(7.5) > 0.95

    def test_yield_decreases_with_area(self):
        areas = [1, 10, 100, 1000]
        yields = [die_yield(a) for a in areas]
        assert yields == sorted(yields, reverse=True)

    def test_waferscale_die_yield_tiny(self):
        # A monolithic 15,000mm2 "die" has dreadful yield.
        assert die_yield(15_000) < 0.01

    def test_zero_defects_perfect_yield(self):
        assert die_yield(100, DefectModel(d0_per_cm2=0.0)) == pytest.approx(1.0)

    def test_kgd_improves_on_raw_yield(self):
        raw = die_yield(7.5)
        kgd = known_good_die_rate(7.5, test_coverage=0.99)
        assert kgd > raw

    def test_perfect_coverage_perfect_kgd(self):
        assert known_good_die_rate(7.5, test_coverage=1.0) == pytest.approx(1.0)

    def test_zero_coverage_equals_raw(self):
        assert known_good_die_rate(7.5, test_coverage=0.0) == pytest.approx(
            die_yield(7.5)
        )

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            die_yield(0)
        with pytest.raises(ConfigError):
            known_good_die_rate(10, test_coverage=1.5)
        with pytest.raises(ConfigError):
            DefectModel(alpha=0)

    @given(
        area=st.floats(0.1, 1000),
        coverage=st.floats(0.0, 1.0),
    )
    @settings(max_examples=40)
    def test_kgd_bounds_property(self, area, coverage):
        kgd = known_good_die_rate(area, coverage)
        assert die_yield(area) - 1e-12 <= kgd <= 1.0


class TestSystemYield:
    def test_comparison_favors_chiplets(self):
        result = compare_monolithic_vs_chiplet(SystemConfig())
        assert result.chiplet_assembly > result.monolithic_with_redundancy
        assert result.monolithic_zero_redundancy < 1e-6
        assert result.chiplet_advantage > 1.0

    def test_expected_faulty_small(self):
        result = compare_monolithic_vs_chiplet(SystemConfig())
        assert result.expected_faulty_chiplets < 16


class TestTable1:
    @pytest.fixture(scope="class")
    def report(self):
        return table1_report(SystemConfig())

    def test_counts(self, report):
        assert report.compute_chiplets == 1024
        assert report.memory_chiplets == 1024
        assert report.total_cores == 14336

    def test_network_bandwidth(self, report):
        assert report.network_bandwidth_tbps == pytest.approx(9.83, abs=0.01)

    def test_shared_memory_bandwidth(self, report):
        assert report.shared_memory_bandwidth_tbps == pytest.approx(6.144, abs=0.001)

    def test_compute_throughput(self, report):
        assert report.compute_throughput_tops == pytest.approx(4.3, abs=0.01)

    def test_total_area_near_15100(self, report):
        assert report.total_area_mm2 == pytest.approx(15_100, rel=0.01)

    def test_peak_power_near_725(self, report):
        assert report.total_peak_power_w == pytest.approx(725, rel=0.05)

    def test_memory_rows(self, report):
        assert report.total_shared_memory_bytes == 512 * 1024 * 1024
        assert report.private_memory_per_core_bytes == 64 * 1024

    def test_render_contains_all_rows(self, report):
        text = report.render()
        assert "9.83 TBps" in text
        assert "14336" in text
        assert "512 MB" in text
        assert "2020(C)/1250(M)" in text


class TestDesignFlow:
    @pytest.fixture(scope="class")
    def flow(self):
        # Reduced size keeps the substrate route fast; every stage still runs.
        return run_design_flow(SystemConfig(rows=8, cols=8), connectivity_trials=5)

    def test_all_stages_pass(self, flow):
        assert flow.ok, flow.summary()

    def test_stage_names(self, flow):
        names = [stage.name for stage in flow.stages]
        assert names == [
            "geometry", "power", "clock", "io", "network", "dft", "substrate",
        ]

    def test_power_stage_metrics(self, flow):
        power = flow.stage("power")
        assert power.metrics["min_voltage"] < power.metrics["max_voltage"]

    def test_clock_stage_rejects_passive_cdn(self, flow):
        assert flow.stage("clock").metrics["passive_cdn_viable"] is False
        assert flow.stage("clock").metrics["forwarding_coverage"] == 1.0

    def test_substrate_stage_clean(self, flow):
        substrate = flow.stage("substrate")
        assert substrate.metrics["drc_clean"]
        assert substrate.metrics["routed"] == substrate.metrics["nets"]

    def test_unknown_stage_raises(self, flow):
        with pytest.raises(ReproError):
            flow.stage("nonexistent")

    def test_summary_mentions_every_stage(self, flow):
        summary = flow.summary()
        for stage in flow.stages:
            assert stage.name in summary


class TestValidator:
    def test_paper_config_validates(self):
        from repro.flow.validate import validate_design

        report = validate_design(SystemConfig(rows=8, cols=8))
        assert report.ok, report.summary()
        assert len(report.results) == 10

    def test_full_wafer_validates(self):
        from repro.flow.validate import validate_design

        report = validate_design(SystemConfig())
        assert report.ok, report.summary()

    def test_tiny_wafer_flags_connectors(self):
        """A 4x4 wafer's perimeter genuinely cannot carry the connector
        demand — the validator must find exactly that."""
        from repro.flow.validate import validate_design

        report = validate_design(SystemConfig(rows=4, cols=4))
        names = [f.name for f in report.failures()]
        assert names == ["connectors-cover-current"]

    def test_inconsistent_config_caught(self):
        from repro.flow.validate import validate_design

        # A 40x40 array pulls the centre voltage under the LDO floor.
        report = validate_design(SystemConfig(rows=40, cols=40))
        names = [f.name for f in report.failures()]
        assert "ldo-covers-droop" in names

    def test_oversize_array_exceeds_packet_fields(self):
        from repro.flow.validate import validate_design

        report = validate_design(SystemConfig(rows=40, cols=40))
        names = [f.name for f in report.failures()]
        assert "tile-ids-fit-packet-fields" in names

    def test_summary_lines(self):
        from repro.flow.validate import validate_design

        report = validate_design(SystemConfig(rows=8, cols=8))
        assert report.summary().count("\n") == len(report.results) - 1

    def test_cli_validate(self, capsys):
        from repro.cli import main

        assert main(["validate", "--rows", "8", "--cols", "8"]) == 0
        out = capsys.readouterr().out
        assert "ldo-covers-droop" in out
