"""Tests for repro.config."""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import params
from repro.config import SystemConfig, paper_config, reduced_config
from repro.errors import ConfigError
from repro.verify.strategies import system_configs

FIELDS = [f.name for f in dataclasses.fields(SystemConfig)]


class TestDefaults:
    def test_paper_scale(self):
        cfg = paper_config()
        assert cfg.tiles == 1024
        assert cfg.chiplets == 2048
        assert cfg.cores == 14336

    def test_shared_memory_is_512mb(self):
        assert paper_config().shared_memory_bytes == 512 * 1024 * 1024

    def test_tile_shared_memory_is_512kb(self):
        assert paper_config().tile_shared_memory_bytes == 512 * 1024

    def test_total_memory_includes_private(self):
        cfg = paper_config()
        per_tile = 5 * 128 * 1024 + 14 * 64 * 1024
        assert cfg.total_memory_bytes == 1024 * per_tile

    def test_edge_current_near_290a(self):
        assert paper_config().total_edge_current_a == pytest.approx(290, rel=0.05)

    def test_peak_power_near_725w(self):
        assert paper_config().total_peak_power_w == pytest.approx(725, rel=0.05)

    def test_tile_pitch(self):
        cfg = paper_config()
        assert cfg.tile_pitch_x_mm == pytest.approx(3.25)
        assert cfg.tile_pitch_y_mm == pytest.approx(3.7)

    def test_array_area_order_of_magnitude(self):
        # The populated array is ~12,300mm2; with the edge ring it reaches
        # Table I's 15,100mm2 (checked in flow tests).
        assert 11_000 < paper_config().array_area_mm2 < 13_000


class TestValidation:
    def test_rejects_zero_rows(self):
        with pytest.raises(ConfigError):
            SystemConfig(rows=0)

    def test_rejects_zero_cores(self):
        with pytest.raises(ConfigError):
            SystemConfig(cores_per_tile=0)

    def test_rejects_bad_pillar_yield(self):
        with pytest.raises(ConfigError):
            SystemConfig(pillar_bond_yield=0.0)
        with pytest.raises(ConfigError):
            SystemConfig(pillar_bond_yield=1.5)

    def test_rejects_zero_pillars(self):
        with pytest.raises(ConfigError):
            SystemConfig(pillars_per_pad=0)

    def test_rejects_shared_banks_exceeding_total(self):
        with pytest.raises(ConfigError):
            SystemConfig(shared_banks_per_tile=6, memory_banks_per_tile=5)

    def test_rejects_low_edge_supply(self):
        with pytest.raises(ConfigError):
            SystemConfig(edge_supply_voltage=1.0)

    def test_rejects_three_signal_layers(self):
        with pytest.raises(ConfigError):
            SystemConfig(signal_layers=3)

    def test_rejects_packet_wider_than_link(self):
        with pytest.raises(ConfigError):
            SystemConfig(packet_width_bits=500, link_width_bits=400)

    @pytest.mark.parametrize("field", ["bank_bytes", "private_sram_per_core_bytes"])
    @pytest.mark.parametrize("size", [0, -8, 6, 130, float("nan")])
    def test_rejects_bad_sram_size_naming_field(self, field, size):
        # Non-positive and non-word-multiple sizes both fail at the
        # boundary, naming the field; from_dict takes the same check.
        with pytest.raises(ConfigError, match=field):
            SystemConfig(rows=2, cols=2, **{field: size})
        with pytest.raises(ConfigError, match=field):
            SystemConfig.from_dict({"rows": 2, "cols": 2, field: size})

    @pytest.mark.parametrize(
        "field, value",
        [
            # NaN passed the edge > nominal check: NaN comparisons are false.
            ("edge_supply_voltage", float("nan")),
            ("edge_supply_voltage", float("inf")),
            ("nominal_vdd", float("nan")),
            ("tile_peak_power_w", float("nan")),
            ("tile_peak_power_w", float("inf")),
            ("tile_peak_power_w", -1.0),
            ("ff_corner_voltage", float("-inf")),
            ("pillar_bond_yield", float("nan")),
            ("wire_pitch_um", float("nan")),
            ("compute_chiplet_w_mm", "wide"),
        ],
    )
    def test_rejects_bad_float_naming_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SystemConfig(rows=2, cols=2, **{field: value})
        with pytest.raises(ConfigError, match=field):
            SystemConfig.from_dict({"rows": 2, "cols": 2, field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            # Each used to pass: validate_design then divided by zero
            # (buses_per_edge=0) or raised a TypeError (rows=2.5).
            ("rows", 2.5),
            ("rows", True),
            ("rows", "3"),
            ("cols", None),
            ("cores_per_tile", 1.5),
            ("shared_banks_per_tile", -1),
            ("memory_banks_per_tile", 0),
            ("buses_per_edge", 0),
            ("pillars_per_pad", None),
            ("power_layers", 0),
            ("toggle_count", -3),
            ("link_width_bits", 400.0),
            ("packet_width_bits", False),
            ("ios_per_compute_chiplet", 0),
            ("ios_per_memory_chiplet", "1250"),
            ("jtag_chains", 0),
            ("signal_layers", 2.0),
            ("reticle_tile_cols", 0),
            ("reticle_tile_rows", -6),
            ("bank_bytes", 4.0),
        ],
    )
    def test_rejects_bad_int_naming_field(self, field, value):
        kwargs = {"rows": 2, "cols": 2, field: value}
        with pytest.raises(ConfigError, match=field):
            SystemConfig(**kwargs)
        with pytest.raises(ConfigError, match=field):
            SystemConfig.from_dict(kwargs)

    def test_accepts_numpy_integers(self):
        import numpy as np

        cfg = SystemConfig(rows=np.int64(3), cols=np.int32(2))
        assert (cfg.rows, cfg.cols) == (3, 2)

    def test_accepts_zero_tile_power(self):
        assert SystemConfig(rows=2, cols=2, tile_peak_power_w=0.0).tile_peak_power_w == 0.0

    @pytest.mark.parametrize("field", ["bank_bytes", "private_sram_per_core_bytes"])
    def test_accepts_one_word_sram(self, field):
        assert getattr(SystemConfig(rows=2, cols=2, **{field: 4}), field) == 4


class TestCoordinates:
    def test_tile_coords_row_major(self):
        cfg = SystemConfig(rows=2, cols=3)
        assert list(cfg.tile_coords()) == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        ]

    def test_edge_detection(self):
        cfg = SystemConfig(rows=4, cols=4)
        assert cfg.is_edge_tile((0, 2))
        assert cfg.is_edge_tile((3, 0))
        assert not cfg.is_edge_tile((1, 1))

    def test_validate_coord_raises(self):
        cfg = SystemConfig(rows=4, cols=4)
        with pytest.raises(ConfigError):
            cfg.validate_coord((4, 0))
        with pytest.raises(ConfigError):
            cfg.validate_coord((0, -1))

    def test_corner_has_two_neighbors(self, tiny_cfg):
        assert len(tiny_cfg.neighbors((0, 0))) == 2

    def test_interior_has_four_neighbors(self, tiny_cfg):
        assert len(tiny_cfg.neighbors((1, 1))) == 4

    def test_scaled_preserves_other_fields(self):
        cfg = SystemConfig(cores_per_tile=7).scaled(8, 8)
        assert cfg.rows == 8 and cfg.cols == 8
        assert cfg.cores_per_tile == 7

    def test_reduced_config(self):
        cfg = reduced_config(5, 6)
        assert (cfg.rows, cfg.cols) == (5, 6)


class TestProperties:
    @given(rows=st.integers(1, 20), cols=st.integers(1, 20))
    def test_tile_count_product(self, rows, cols):
        cfg = SystemConfig(rows=rows, cols=cols)
        assert cfg.tiles == rows * cols
        assert len(list(cfg.tile_coords())) == rows * cols

    @given(rows=st.integers(2, 12), cols=st.integers(2, 12))
    def test_neighbors_symmetric(self, rows, cols):
        cfg = SystemConfig(rows=rows, cols=cols)
        for coord in cfg.tile_coords():
            for nbr in cfg.neighbors(coord):
                assert coord in cfg.neighbors(nbr)

    @given(rows=st.integers(1, 16), cols=st.integers(1, 16))
    def test_config_hashable_and_frozen(self, rows, cols):
        cfg = SystemConfig(rows=rows, cols=cols)
        assert hash(cfg) == hash(SystemConfig(rows=rows, cols=cols))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.rows = 1    # type: ignore[misc]


class TestSerialisation:
    def test_to_dict_covers_every_field(self):
        cfg = SystemConfig()
        data = cfg.to_dict()
        assert set(data) == {f.name for f in dataclasses.fields(SystemConfig)}

    def test_round_trip_is_exact(self):
        cfg = SystemConfig(rows=5, cols=9, cores_per_tile=11)
        assert SystemConfig.from_dict(cfg.to_dict()) == cfg

    def test_partial_dict_takes_defaults(self):
        cfg = SystemConfig.from_dict({"rows": 6})
        assert cfg.rows == 6
        assert cfg.cols == SystemConfig().cols

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig.from_dict({"rowz": 4})

    def test_from_dict_validates(self):
        with pytest.raises(ConfigError):
            SystemConfig.from_dict({"rows": 0})

    def test_variant_overrides_and_validates(self):
        cfg = SystemConfig().variant(rows=3, cores_per_tile=9)
        assert (cfg.rows, cfg.cores_per_tile) == (3, 9)
        with pytest.raises(ConfigError):
            SystemConfig().variant(pillars_per_pad=0)

    def test_aliases_agree_with_from_dict(self):
        assert paper_config() == SystemConfig.from_dict({})
        assert reduced_config(7, 3) == SystemConfig.from_dict({"rows": 7, "cols": 3})
        assert SystemConfig().scaled(4, 4) == SystemConfig.from_dict(
            {"rows": 4, "cols": 4}
        )


#: Odd values for any field: zero, negative, non-finite, bool, str, None.
_ODD_VALUES = st.one_of(
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
)


class TestFromDictFuzz:
    """``from_dict`` builds a config that round-trips, or names the field."""

    @pytest.mark.parametrize("field", FIELDS)
    @given(base=system_configs(min_side=1, max_side=128), value=_ODD_VALUES)
    @example(base=SystemConfig(rows=1, cols=1), value=0)
    @example(base=SystemConfig(rows=128, cols=128), value=-1)
    @example(base=SystemConfig(rows=1, cols=128), value=math.nan)
    @example(base=SystemConfig(rows=128, cols=1), value=math.inf)
    @example(base=SystemConfig(rows=2, cols=2), value=-math.inf)
    @example(base=SystemConfig(rows=2, cols=2), value=True)
    @example(base=SystemConfig(rows=2, cols=2), value="3")
    @example(base=SystemConfig(rows=2, cols=2), value=None)
    @settings(max_examples=10, deadline=None)
    def test_builds_or_names_field(self, field, base, value):
        data = {**base.to_dict(), field: value}
        try:
            cfg = SystemConfig.from_dict(data)
        except ConfigError as exc:
            # The tile-array check reports both dimensions ("got 0x32").
            named = field in str(exc) or (
                field in ("rows", "cols") and "tile array" in str(exc)
            )
            assert named, (field, value, str(exc))
        else:
            assert cfg.to_dict() == data
            assert SystemConfig.from_dict(cfg.to_dict()) == cfg
