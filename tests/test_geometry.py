"""Tests for repro.geometry (wafer, chiplet, reticle)."""

import pytest
from hypothesis import given, strategies as st

from repro.config import SystemConfig
from repro.errors import GeometryError
from repro.geometry.chiplet import (
    ChipletKind,
    ChipletSpec,
    compute_chiplet,
    memory_chiplet,
    tile_area_mm2,
)
from repro.geometry.reticle import plan_reticles
from repro.geometry.wafer import WaferLayout, build_layout


class TestChiplet:
    def test_compute_chiplet_area(self):
        spec = compute_chiplet()
        assert spec.area_mm2 == pytest.approx(3.15 * 2.4)
        assert spec.kind is ChipletKind.COMPUTE
        assert spec.cores == 14

    def test_memory_chiplet_area(self):
        spec = memory_chiplet()
        assert spec.area_mm2 == pytest.approx(3.15 * 1.1)
        assert spec.sram_banks == 5

    def test_tile_area_matches_sum(self):
        assert tile_area_mm2() == pytest.approx(
            compute_chiplet().area_mm2 + memory_chiplet().area_mm2
        )

    def test_perimeter_io_bound_fits_budget(self):
        # 2020 I/Os must fit the compute chiplet perimeter at 10um pitch
        # with two pad rows.
        spec = compute_chiplet()
        assert spec.max_perimeter_ios(10.0, pad_rows=2) >= 2020

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(GeometryError):
            ChipletSpec(kind=ChipletKind.COMPUTE, width_mm=0, height_mm=1, io_count=1)

    def test_negative_io_rejected(self):
        with pytest.raises(GeometryError):
            ChipletSpec(kind=ChipletKind.COMPUTE, width_mm=1, height_mm=1, io_count=-1)

    def test_bad_pitch_rejected(self):
        with pytest.raises(GeometryError):
            compute_chiplet().max_perimeter_ios(0)


class TestWaferLayout:
    def test_full_wafer_active_area(self, paper_cfg):
        layout = WaferLayout(paper_cfg)
        # 2048 chiplets of ~11mm2/tile: ~11,300mm2 of silicon.
        assert layout.active_area_mm2 == pytest.approx(1024 * tile_area_mm2(), rel=1e-9)

    def test_placements_count(self, small_cfg):
        assert len(WaferLayout(small_cfg).placements()) == 64

    def test_centre_tiles_nearest_array_centre(self, paper_cfg):
        layout = WaferLayout(paper_cfg)
        centre = layout.distance_to_center_mm((16, 16))
        assert centre < paper_cfg.tile_pitch_y_mm
        assert centre < layout.distance_to_center_mm((0, 0)) / 10

    def test_placement_positions_monotonic(self, small_cfg):
        layout = WaferLayout(small_cfg)
        p00 = layout.placement((0, 0))
        p11 = layout.placement((1, 1))
        assert p11.origin_x_mm > p00.origin_x_mm
        assert p11.origin_y_mm > p00.origin_y_mm

    def test_memory_chiplet_below_compute(self, small_cfg):
        layout = WaferLayout(small_cfg)
        placement = layout.placement((2, 3))
        cx, cy = placement.chiplet_origin(ChipletKind.COMPUTE)
        mx, my = placement.chiplet_origin(ChipletKind.MEMORY)
        assert cx == mx
        assert my > cy

    def test_center_tile_has_max_edge_distance(self, paper_cfg):
        layout = WaferLayout(paper_cfg)
        center = (16, 16)
        corner = (0, 0)
        assert layout.distance_to_edge_mm(center) > layout.distance_to_edge_mm(corner)

    def test_max_edge_distance_around_50mm(self, paper_cfg):
        # Half the ~104mm array width: the paper's "as far as 70mm from
        # the nearest capacitor" counts to the capacitors beyond the
        # array edge; the array-edge distance is ~52mm.
        distance = WaferLayout(paper_cfg).max_edge_distance_mm()
        assert 45 < distance < 60

    def test_unknown_tile_raises(self, small_cfg):
        with pytest.raises(GeometryError):
            WaferLayout(small_cfg).placement((9, 9))

    @given(rows=st.integers(2, 10), cols=st.integers(2, 10))
    def test_distance_to_edge_bounded(self, rows, cols):
        cfg = SystemConfig(rows=rows, cols=cols)
        layout = WaferLayout(cfg)
        half_min_dim = min(layout.width_mm, layout.height_mm) / 2
        for coord in cfg.tile_coords():
            d = layout.distance_to_edge_mm(coord)
            assert 0 <= d <= half_min_dim + 1e-9


class TestReticle:
    def test_full_wafer_step_count(self, paper_cfg):
        plan = plan_reticles(paper_cfg)
        # 32 rows / 6 per reticle = 6 steps; 32 cols / 12 = 3 steps.
        assert plan.step_count == 6 * 3

    def test_every_tile_covered_once(self, paper_cfg):
        plan = plan_reticles(paper_cfg)
        for coord in paper_cfg.tile_coords():
            reticle = plan.reticle_of(coord)
            assert reticle.covers(coord)

    def test_reticle_tile_lists_partition_the_array(self, paper_cfg):
        plan = plan_reticles(paper_cfg)
        covered = [c for r in plan.reticles if not r.is_edge for c in r.tile_coords]
        assert sorted(covered) == list(paper_cfg.tile_coords())

    def test_boundary_pairs_cross(self, paper_cfg):
        plan = plan_reticles(paper_cfg)
        # Column 11 -> 12 crosses the first vertical reticle boundary.
        assert plan.crosses_boundary((0, 11), (0, 12))
        assert not plan.crosses_boundary((0, 0), (0, 1))

    def test_boundary_tile_pairs_nonempty(self, paper_cfg):
        pairs = plan_reticles(paper_cfg).boundary_tile_pairs()
        assert pairs
        for a, b in pairs:
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1

    def test_edge_reticles_exist(self, paper_cfg):
        plan = plan_reticles(paper_cfg)
        assert plan.edge_reticle_count > 0

    def test_small_array_single_reticle(self):
        cfg = SystemConfig(rows=6, cols=12)
        plan = plan_reticles(cfg)
        assert plan.step_count == 1
        assert not plan.boundary_tile_pairs()
