"""Unit tests for the Skylake-like physical-to-media mapping (§4.2)."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.geometry import DRAMGeometry
from repro.dram.mapping import AddressRange, SkylakeMapping, merge_ranges
from repro.errors import MappingError
from repro.units import CACHE_LINE, GiB, KiB, MiB, PAGE_2M, PAGE_4K

SMALL = DRAMGeometry.small(sockets=2)
SMALL_MAP = SkylakeMapping.for_small_geometry(SMALL)


class TestAddressRange:
    def test_size_and_contains(self):
        r = AddressRange(0x1000, 0x2000)
        assert r.size == 0x1000
        assert 0x1000 in r and 0x1fff in r and 0x2000 not in r

    def test_rejects_inverted(self):
        with pytest.raises(MappingError):
            AddressRange(10, 5)

    def test_overlaps(self):
        assert AddressRange(0, 10).overlaps(AddressRange(9, 20))
        assert not AddressRange(0, 10).overlaps(AddressRange(10, 20))

    def test_merge_coalesces_adjacent(self):
        merged = merge_ranges(
            [AddressRange(10, 20), AddressRange(0, 10), AddressRange(30, 40)]
        )
        assert merged == [AddressRange(0, 20), AddressRange(30, 40)]


class TestShape:
    def test_paper_chunk_is_24_mib(self):
        mapping = SkylakeMapping(DRAMGeometry.paper_default())
        assert mapping.chunk_bytes == 24 * MiB

    def test_paper_region_is_768_mib(self):
        mapping = SkylakeMapping(DRAMGeometry.paper_default())
        assert mapping.region_bytes == 768 * MiB

    def test_small_shape_divides(self):
        assert SMALL.rows_per_bank % SMALL_MAP.region_row_groups == 0

    def test_rejects_non_dividing_region(self):
        geom = DRAMGeometry.small(rows_per_bank=48, rows_per_subarray=8)
        with pytest.raises(MappingError):
            SkylakeMapping(geom, chunk_row_groups=5, chunks_per_range=2)


class TestRoundTrip:
    def test_exhaustive_small_geometry(self):
        SMALL_MAP.verify_invertible(stride=CACHE_LINE)

    @given(st.integers(min_value=0, max_value=SMALL.total_bytes - 1))
    @settings(max_examples=200)
    def test_byte_roundtrip(self, hpa):
        assert SMALL_MAP.encode(SMALL_MAP.decode(hpa)) == hpa

    def test_paper_scale_sampled_roundtrip(self):
        geom = DRAMGeometry.paper_default()
        mapping = SkylakeMapping(geom)
        for hpa in range(0, geom.total_bytes, 977 * MiB + 4096 + 64):
            assert mapping.encode(mapping.decode(hpa)) == hpa

    def test_decode_rejects_out_of_range(self):
        with pytest.raises(MappingError):
            SMALL_MAP.decode(SMALL.total_bytes)
        with pytest.raises(MappingError):
            SMALL_MAP.decode(-1)


class TestInterleaving:
    """§2.4: sequential cache lines spread across banks."""

    def test_consecutive_lines_hit_distinct_banks(self):
        banks = [
            SMALL_MAP.decode(i * CACHE_LINE).socket_bank_index(SMALL)
            for i in range(SMALL.banks_per_socket)
        ]
        assert sorted(banks) == list(range(SMALL.banks_per_socket))

    def test_4k_page_touches_many_banks(self):
        banks = {
            SMALL_MAP.decode(i * CACHE_LINE).socket_bank_index(SMALL)
            for i in range(PAGE_4K // CACHE_LINE)
        }
        assert len(banks) == min(SMALL.banks_per_socket, PAGE_4K // CACHE_LINE)

    def test_group_confined_lines_spread_like_unconfined(self):
        """§4.1: a trace confined to one subarray group keeps full
        bank-level parallelism — it touches every bank, exactly as
        evenly as the same trace from address 0."""

        def bank_counts(base):
            return Counter(
                SMALL_MAP.decode(base + i * CACHE_LINE).socket_bank_index(SMALL)
                for i in range(512)
            )

        group_base = SMALL.subarray_group_bytes
        assert SMALL_MAP.subarray_group_of_hpa(group_base) == (0, 1)
        confined, unconfined = bank_counts(group_base), bank_counts(0)
        assert set(confined) == set(range(SMALL.banks_per_socket))
        assert confined == unconfined

    def test_paper_4k_page_touches_64_banks(self):
        mapping = SkylakeMapping(DRAMGeometry.paper_default())
        banks = {
            mapping.decode(i * CACHE_LINE).socket_bank_index(mapping.geom)
            for i in range(PAGE_4K // CACHE_LINE)
        }
        assert len(banks) == 64  # 64 lines in a 4 KiB page

    def test_socket_split(self):
        assert SMALL_MAP.decode(0).socket == 0
        assert SMALL_MAP.decode(SMALL.socket_bytes).socket == 1


class TestChunkAlternation:
    """§4.2's A/B population pattern."""

    def test_row_groups_do_not_ascend_monotonically(self):
        rows = [
            SMALL_MAP.decode(SMALL.row_group_bytes * i).row
            for i in range(SMALL_MAP.region_row_groups)
        ]
        assert rows != sorted(rows)
        assert sorted(rows) == list(range(SMALL_MAP.region_row_groups))

    def test_first_chunk_of_region_is_range_a(self):
        # Physical chunk 0 (range A's first chunk) fills row groups [0, n).
        for rg in range(SMALL_MAP.chunk_row_groups):
            hpa = rg * SMALL.row_group_bytes
            assert SMALL_MAP.decode(hpa).row == rg

    def test_range_b_first_chunk_fills_second_rg_chunk(self):
        # Physical chunk cpr (range B's first chunk) fills row groups [n, 2n).
        base = SMALL_MAP.chunks_per_range * SMALL_MAP.chunk_bytes
        assert SMALL_MAP.decode(base).row == SMALL_MAP.chunk_row_groups

    def test_chunk_permutation_is_bijective(self):
        total = 2 * SMALL_MAP.chunks_per_range
        image = {SMALL_MAP._phys_chunk_to_rg_chunk(c) for c in range(total)}
        assert image == set(range(total))
        for c in range(total):
            assert SMALL_MAP._rg_chunk_to_phys_chunk(
                SMALL_MAP._phys_chunk_to_rg_chunk(c)
            ) == c


class TestSubarrayGroupQueries:
    def test_group_of_hpa_matches_row(self):
        for hpa in range(0, SMALL.total_bytes, 3 * 8 * KiB):
            socket, group = SMALL_MAP.subarray_group_of_hpa(hpa)
            media = SMALL_MAP.decode(hpa)
            assert socket == media.socket
            assert group == media.row // SMALL.rows_per_subarray

    def test_group_ranges_cover_group_exactly(self):
        for socket in range(SMALL.sockets):
            for group in range(SMALL.groups_per_socket):
                ranges = SMALL_MAP.subarray_group_ranges(socket, group)
                total = sum(r.size for r in ranges)
                assert total == SMALL.subarray_group_bytes
                for r in ranges:
                    for hpa in range(r.start, r.end, SMALL.row_group_bytes):
                        assert SMALL_MAP.subarray_group_of_hpa(hpa) == (socket, group)

    def test_group_ranges_contiguous_when_group_spans_whole_regions(self):
        # 8-row subarrays = 8 row groups = exactly one mapping region here,
        # so each group is one contiguous range (mirrors the paper where
        # 1024-row groups span exactly two 768 MiB regions).
        for group in range(SMALL.groups_per_socket):
            assert len(SMALL_MAP.subarray_group_ranges(0, group)) == 1

    def test_groups_partition_the_socket(self):
        seen = []
        for group in range(SMALL.groups_per_socket):
            seen.extend(SMALL_MAP.subarray_group_ranges(0, group))
        merged = merge_ranges(seen)
        assert merged == [AddressRange(0, SMALL.socket_bytes)]

    def test_row_group_range_is_single_and_sized(self):
        (r,) = SMALL_MAP.row_group_ranges(0, 5)
        assert r.size == SMALL.row_group_bytes

    def test_rejects_bad_group(self):
        with pytest.raises(MappingError):
            SMALL_MAP.subarray_group_ranges(0, SMALL.groups_per_socket)


class TestPageIsolation:
    """§4.2: 4 KiB and 2 MiB pages always isolate; huge ranges may not."""

    def test_all_4k_pages_isolated(self):
        assert SMALL_MAP.fraction_of_pages_isolated(PAGE_4K) == 1.0

    def test_all_rowgroup_sized_pages_isolated(self):
        assert SMALL_MAP.fraction_of_pages_isolated(SMALL.row_group_bytes) == 1.0

    def test_chunk_sized_pages_isolated(self):
        # Chunks are the 24 MiB analogue: always single-group.
        assert SMALL_MAP.fraction_of_pages_isolated(SMALL_MAP.chunk_bytes) == 1.0

    def test_group_sized_pages_isolated_here(self):
        # Group == mapping region on this geometry, so aligned group-size
        # pages isolate.
        frac = SMALL_MAP.fraction_of_pages_isolated(SMALL.subarray_group_bytes)
        assert frac == 1.0

    def test_oversized_pages_not_isolated(self):
        # Pages spanning two subarray groups cannot isolate.
        frac = SMALL_MAP.fraction_of_pages_isolated(2 * SMALL.subarray_group_bytes)
        assert frac == 0.0

    def test_groups_touched_by_range(self):
        groups = SMALL_MAP.groups_touched_by_range(0, 2 * SMALL.subarray_group_bytes)
        assert groups == {(0, 0), (0, 1)}

    def test_groups_touched_rejects_empty(self):
        with pytest.raises(MappingError):
            SMALL_MAP.groups_touched_by_range(0, 0)

    def test_page_is_isolated_predicate(self):
        assert SMALL_MAP.page_is_isolated(0, PAGE_4K)
        assert not SMALL_MAP.page_is_isolated(
            SMALL.subarray_group_bytes - PAGE_4K, 2 * PAGE_4K
        )


@pytest.mark.slow
class TestPaperScaleIsolation:
    """Spot-check the paper's 2 MiB / 1 GiB page claims on real geometry."""

    def setup_method(self):
        self.geom = DRAMGeometry.paper_default()
        self.mapping = SkylakeMapping(self.geom)

    def test_2mib_pages_single_group_sampled(self):
        # Sample across chunk and region boundaries.
        for start in range(0, 4 * self.mapping.region_bytes, 37 * PAGE_2M):
            assert self.mapping.page_is_isolated(start, PAGE_2M)

    def test_1gib_pages_straddle_group_boundaries(self):
        # 1.5 GiB groups mean the 1 GiB page at offset 1 GiB spans the
        # group 0 / group 1 boundary — 1 GiB pages do not inherently map
        # to a single group (§4.2)...
        assert not self.mapping.page_is_isolated(GiB, GiB)
        # ...but it stays within the 3 GiB set formed by consecutive
        # groups (0, 1), so set-level isolation works.
        groups = self.mapping.groups_touched_by_range(GiB, GiB)
        assert {g for _, g in groups} == {0, 1}

    def test_one_third_of_1gib_ranges_fit_3gib_sets(self):
        # §4.2: at least 1/3 of aligned 1 GiB ranges sit inside a single
        # 3 GiB set of two consecutive 1.5 GiB groups.
        fitting = 0
        total = 12
        for i in range(total):
            groups = self.mapping.groups_touched_by_range(i * GiB, GiB)
            sets = {g // 2 for _, g in groups}
            if len(sets) == 1:
                fitting += 1
        assert fitting >= total // 3
