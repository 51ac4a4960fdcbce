"""Unit tests for the Rowhammer/RowPress disturbance model (§2.5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.disturbance import (
    BitFlip,
    DisturbanceModel,
    DisturbanceProfile,
)
from repro.dram.geometry import DRAMGeometry
from repro.errors import DramError

GEOM = DRAMGeometry.small()  # 64 rows/bank, 8-row subarrays


def hammer(model, row, count, socket=0, bank=0):
    flips = []
    for i in range(count):
        flips.extend(model.on_activate(socket, bank, row, when=float(i)))
    return flips


class TestProfiles:
    def test_rejects_bad_threshold(self):
        with pytest.raises(DramError):
            DisturbanceProfile(threshold_mean=0)

    def test_rejects_empty_weights(self):
        with pytest.raises(DramError):
            DisturbanceProfile(distance_weights=())

    @pytest.mark.parametrize(
        "field, value",
        [
            ("distance_weights", (0.0, 0.2)),
            ("distance_weights", (-1.0,)),
            ("distance_weights", (float("nan"), 0.2)),
            ("distance_weights", (float("inf"),)),
            ("distance_weights", (1.0, -0.3)),
            ("distance_weights", (1.0, -0.6)),
            ("distance_weights", (1.0, -0.9)),
            ("distance_weights", (1.0, float("nan"))),
            ("distance_weights", (1.0, 0.2, float("inf"))),
            ("threshold_mean", 0.0),
            ("threshold_mean", -1.0),
            ("threshold_mean", float("nan")),
            ("threshold_mean", float("inf")),
            ("flip_bits_mean", 0.0),
            ("flip_bits_mean", -1.5),
            ("flip_bits_mean", float("nan")),
            ("flip_bits_mean", float("inf")),
            ("threshold_sigma", -0.1),
            ("threshold_sigma", float("nan")),
            ("threshold_sigma", float("inf")),
            ("rowpress_rate", -1.0),
            ("rowpress_rate", float("nan")),
            ("rowpress_rate", float("inf")),
        ],
    )
    def test_rejects_out_of_range_parameters(self, field, value):
        with pytest.raises(DramError, match=field):
            DisturbanceProfile(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("distance_weights", (1.0, 0.0)),
            ("threshold_sigma", 0.0),
            ("rowpress_rate", 0.0),
            ("rowpress_rate", None),
        ],
    )
    def test_accepts_boundary_parameters(self, field, value):
        assert getattr(DisturbanceProfile(**{field: value}), field) == value

    def test_fleet_has_six_distinct_dimms(self):
        fleet = DisturbanceProfile.dimm_fleet()
        assert [p.name for p in fleet] == ["A", "B", "C", "D", "E", "F"]
        assert len({p.threshold_mean for p in fleet}) == 6

    def test_blast_radius_from_weights(self):
        assert DisturbanceProfile(distance_weights=(1.0,)).blast_radius == 1
        assert DisturbanceProfile().blast_radius == 2


class TestHammering:
    def setup_method(self):
        self.model = DisturbanceModel(
            GEOM, DisturbanceProfile.test_scale(threshold_mean=32.0), seed=7
        )

    def test_no_flips_below_threshold(self):
        flips = hammer(self.model, row=3, count=5)
        assert flips == []

    def test_flips_appear_past_threshold(self):
        flips = hammer(self.model, row=3, count=400)
        assert flips

    def test_flips_hit_only_neighbors(self):
        hammer(self.model, row=3, count=400)
        victim_rows = {f.row for f in self.model.flips}
        assert victim_rows <= {1, 2, 4, 5}  # blast radius 2 around row 3

    def test_aggressor_recorded(self):
        hammer(self.model, row=3, count=400)
        assert all(f.aggressor_row == 3 for f in self.model.flips)

    def test_flips_never_cross_subarray_boundary(self):
        """The paper's foundational fact: rows 7 and 8 are in different
        subarrays, so hammering row 7 cannot flip bits in row 8+."""
        hammer(self.model, row=7, count=2000)
        assert self.model.flips  # plenty of pressure applied
        assert all(f.row < 8 for f in self.model.flips)

    def test_boundary_row_on_other_side(self):
        hammer(self.model, row=8, count=2000)
        assert self.model.flips
        assert all(8 <= f.row < 16 for f in self.model.flips)

    def test_edge_of_bank_clipped(self):
        hammer(self.model, row=0, count=2000)
        assert all(0 <= f.row < GEOM.rows_per_bank for f in self.model.flips)

    def test_activation_refreshes_self(self):
        # Alternate hammering rows 2 and 4: row 3 accumulates from both,
        # but rows 2/4 refresh each other... activation of a row clears
        # its own pressure.
        for i in range(50):
            self.model.on_activate(0, 0, 2, float(i))
        assert self.model.pressure_on(0, 0, 3) > 0
        self.model.on_activate(0, 0, 3, 50.0)
        assert self.model.pressure_on(0, 0, 3) == 0.0

    def test_distance_weights_decay(self):
        hammer(self.model, row=3, count=20)
        assert self.model.pressure_on(0, 0, 2) > self.model.pressure_on(0, 0, 1)

    def test_banks_independent(self):
        hammer(self.model, row=3, count=400, bank=0)
        assert not [f for f in self.model.flips if f.bank != 0]
        assert self.model.pressure_on(0, 1, 2) == 0.0


class TestRefresh:
    def setup_method(self):
        self.model = DisturbanceModel(
            GEOM, DisturbanceProfile.test_scale(threshold_mean=32.0), seed=1
        )

    def test_row_refresh_clears_pressure(self):
        hammer(self.model, row=3, count=10)
        self.model.on_refresh_row(0, 0, 2)
        assert self.model.pressure_on(0, 0, 2) == 0.0
        assert self.model.pressure_on(0, 0, 4) > 0.0

    def test_full_refresh_clears_everything(self):
        hammer(self.model, row=3, count=10)
        self.model.on_refresh_all()
        assert self.model.pressure_on(0, 0, 2) == 0.0
        assert self.model.pressure_on(0, 0, 4) == 0.0

    def test_periodic_refresh_prevents_flips(self):
        # Hammering below threshold per window, refreshed between windows,
        # never flips: this is why thresholds are per-refresh-window.
        for _ in range(20):
            hammer(self.model, row=3, count=8)
            self.model.on_refresh_all()
        assert self.model.flips == []


class TestRowPress:
    def setup_method(self):
        self.model = DisturbanceModel(
            GEOM, DisturbanceProfile.test_scale(threshold_mean=32.0), seed=3
        )

    def test_long_open_time_flips_without_many_acts(self):
        flips = []
        for i in range(8):
            flips.extend(self.model.on_activate(0, 0, 3, float(i)))
            flips.extend(
                self.model.on_row_open_time(0, 0, 3, seconds=0.05, when=float(i))
            )
        assert flips  # RowPress pressure did the work

    def test_rowpress_respects_subarray_isolation(self):
        for i in range(20):
            self.model.on_activate(0, 0, 7, float(i))
            self.model.on_row_open_time(0, 0, 7, seconds=0.05, when=float(i))
        assert all(f.row < 8 for f in self.model.flips)

    def test_zero_open_time_is_noop(self):
        assert self.model.on_row_open_time(0, 0, 3, 0.0, 0.0) == []

    def test_negative_open_time_rejected(self):
        with pytest.raises(DramError):
            self.model.on_row_open_time(0, 0, 3, -1.0, 0.0)


class TestDeterminism:
    def test_same_seed_same_flips(self):
        runs = []
        for _ in range(2):
            model = DisturbanceModel(
                GEOM, DisturbanceProfile.test_scale(), seed=42
            )
            hammer(model, row=3, count=500)
            runs.append([(f.row, f.bit) for f in model.flips])
        assert runs[0] == runs[1]

    def test_different_seeds_differ(self):
        results = []
        for seed in (1, 2):
            model = DisturbanceModel(
                GEOM, DisturbanceProfile.test_scale(), seed=seed
            )
            hammer(model, row=3, count=500)
            results.append([(f.row, f.bit) for f in model.flips])
        assert results[0] != results[1]


class TestPropertyContainment:
    @given(
        row=st.integers(0, GEOM.rows_per_bank - 1),
        count=st.integers(1, 300),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_flips_always_in_aggressor_subarray(self, row, count, seed):
        """Property: no matter the aggressor or intensity, every flip
        lands in the aggressor's subarray (paper §2.5 / Table 3)."""
        model = DisturbanceModel(
            GEOM, DisturbanceProfile.test_scale(threshold_mean=16.0), seed=seed
        )
        hammer(model, row=row, count=count)
        subarray = GEOM.subarray_of_row(row)
        assert all(GEOM.subarray_of_row(f.row) == subarray for f in model.flips)

    @given(st.integers(0, GEOM.rows_per_bank - 1))
    def test_flip_bit_range(self, row):
        model = DisturbanceModel(
            GEOM, DisturbanceProfile.test_scale(threshold_mean=4.0), seed=0
        )
        hammer(model, row=row, count=100)
        assert all(0 <= f.bit < GEOM.row_bytes * 8 for f in model.flips)
