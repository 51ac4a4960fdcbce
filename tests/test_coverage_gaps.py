"""Tests for smaller surfaces not exercised elsewhere."""

import pytest

from repro.core import SilozHypervisor
from repro.dram.geometry import DRAMGeometry
from repro.dram.mapping import SkylakeMapping
from repro.dram.module import SimulatedDram
from repro.dram.trr import TrrConfig
from repro.errors import MappingError
from repro.hv import Machine
from repro.units import KiB, MiB

GEOM = DRAMGeometry.small()


class TestMappingMisc:
    def test_verify_invertible_passes_small(self):
        SkylakeMapping.for_small_geometry(GEOM).verify_invertible(stride=8 * KiB)

    def test_fraction_rejects_oversize_page(self):
        mapping = SkylakeMapping.for_small_geometry(GEOM)
        with pytest.raises(MappingError):
            mapping.fraction_of_pages_isolated(2 * GEOM.socket_bytes)


class TestModuleQueries:
    def test_acts_until_trr_ref(self):
        dram = SimulatedDram(GEOM, trr_config=TrrConfig(), trr_ref_every=16)
        assert dram.acts_until_trr_ref(0, 0) == 16
        dram.activate(0, 0, 3)
        assert dram.acts_until_trr_ref(0, 0) == 15

    def test_acts_until_trr_ref_none_without_trr(self):
        dram = SimulatedDram(GEOM, trr_config=None)
        assert dram.acts_until_trr_ref(0, 0) is None


class TestProvisionResult:
    def test_guest_node_ids_filter_by_socket(self):
        hv = SilozHypervisor.boot(Machine.small(sockets=2, seed=92))
        all_ids = hv.provision_result.guest_node_ids()
        s0 = hv.provision_result.guest_node_ids(0)
        s1 = hv.provision_result.guest_node_ids(1)
        assert sorted(s0 + s1) == sorted(all_ids)
        assert s0 and s1


class TestOfflineIndexMerging:
    """Edge cases of the bisect interval index behind ``is_offline``."""

    def _registry(self):
        from repro.mm.offline import OfflineRegistry

        return OfflineRegistry()

    def test_empty_registry(self):
        reg = self._registry()
        assert not reg.is_offline(0)
        assert not reg.is_offline(10**12)

    def test_half_open_boundaries(self):
        from repro.dram.mapping import AddressRange

        reg = self._registry()
        reg._index_add(AddressRange(100, 200))
        assert not reg.is_offline(99)
        assert reg.is_offline(100)
        assert reg.is_offline(199)
        assert not reg.is_offline(200)

    def test_adjacent_ranges_merge_left(self):
        from repro.dram.mapping import AddressRange

        reg = self._registry()
        reg._index_add(AddressRange(0, 100))
        reg._index_add(AddressRange(100, 200))
        assert reg._index_starts == [0] and reg._index_ends == [200]
        assert reg.is_offline(150) and not reg.is_offline(200)

    def test_overlapping_ranges_merge(self):
        from repro.dram.mapping import AddressRange

        reg = self._registry()
        reg._index_add(AddressRange(0, 100))
        reg._index_add(AddressRange(50, 150))
        assert reg._index_starts == [0] and reg._index_ends == [150]

    def test_bridge_absorbs_multiple_right_neighbors(self):
        from repro.dram.mapping import AddressRange

        reg = self._registry()
        reg._index_add(AddressRange(200, 300))
        reg._index_add(AddressRange(400, 500))
        reg._index_add(AddressRange(600, 700))
        reg._index_add(AddressRange(100, 650))  # spans all three
        assert reg._index_starts == [100] and reg._index_ends == [700]
        assert reg.is_offline(100) and reg.is_offline(699)
        assert not reg.is_offline(700)

    def test_contained_range_is_noop(self):
        from repro.dram.mapping import AddressRange

        reg = self._registry()
        reg._index_add(AddressRange(0, 1000))
        reg._index_add(AddressRange(200, 300))
        assert reg._index_starts == [0] and reg._index_ends == [1000]

    def test_disjoint_ranges_stay_disjoint(self):
        from repro.dram.mapping import AddressRange

        reg = self._registry()
        reg._index_add(AddressRange(100, 200))
        reg._index_add(AddressRange(400, 500))
        assert reg._index_starts == [100, 400]
        assert not reg.is_offline(300)

    def test_randomized_adds_match_brute_force(self):
        import random

        from repro.dram.mapping import AddressRange

        rng = random.Random(17)
        reg = self._registry()
        covered = set()
        for _ in range(200):
            start = rng.randrange(0, 500)
            end = start + rng.randrange(1, 60)
            reg._index_add(AddressRange(start, end))
            covered.update(range(start, end))
            # Index invariant: sorted, disjoint, non-adjacent.
            pairs = list(zip(reg._index_starts, reg._index_ends))
            assert all(s < e for s, e in pairs)
            assert all(
                pairs[i][1] < pairs[i + 1][0] for i in range(len(pairs) - 1)
            )
        for point in range(0, 600):
            assert reg.is_offline(point) == (point in covered), point


class TestRemapRangeLeafSplitting:
    """``remap_range`` 2 MiB-leaf edge cases (live-migration EPT path)."""

    def setup_method(self):
        from test_ept import GEOM as EPT_GEOM, make_ept

        self.dram = SimulatedDram(EPT_GEOM, trr_config=None)
        self.ept = make_ept(self.dram)

    def test_partial_overlap_splits_large_leaf(self):
        from repro.units import KiB, PAGE_2M, PAGE_4K

        hpa = 4 * MiB
        self.ept.map(0, hpa, PAGE_2M)  # one large leaf
        old_start = hpa + 256 * KiB
        span = 512 * KiB
        new_start = 8 * MiB
        moved = self.ept.remap_range(old_start, span, new_start)
        assert moved == span
        assert self.ept.mapped_bytes == PAGE_2M  # split conserves mapping
        for off in range(0, PAGE_2M, PAGE_4K):
            got = self.ept.translate(off)
            piece = hpa + off
            if old_start <= piece < old_start + span:
                assert got == new_start + (piece - old_start), hex(off)
            else:
                assert got == piece, hex(off)

    def test_fully_covered_leaf_retargets_without_split(self):
        from repro.units import PAGE_2M, PAGE_4K

        hpa = 4 * MiB
        self.ept.map(0, hpa, PAGE_2M)
        pages_before = len(self.ept.table_pages)
        moved = self.ept.remap_range(hpa, PAGE_2M, 8 * MiB)
        assert moved == PAGE_2M
        # Wholesale retarget: no PT allocated, leaf stays 2 MiB.
        assert len(self.ept.table_pages) == pages_before
        assert self.ept.translate(0) == 8 * MiB
        assert self.ept.translate(PAGE_2M - PAGE_4K) == 8 * MiB + PAGE_2M - PAGE_4K

    def test_split_allocates_page_table(self):
        from repro.units import KiB, PAGE_2M

        hpa = 4 * MiB
        self.ept.map(0, hpa, PAGE_2M)
        pages_before = len(self.ept.table_pages)
        self.ept.remap_range(hpa + 512 * KiB, 512 * KiB, 8 * MiB)
        # Splitting a 2 MiB leaf into 512 4 KiB leaves needs a new PT.
        assert len(self.ept.table_pages) == pages_before + 1

    def test_interior_hole_moves_only_the_hole(self):
        from repro.units import KiB, PAGE_2M, PAGE_4K

        hpa = 2 * MiB
        self.ept.map(0, hpa, PAGE_2M)
        old_start = hpa + 1 * MiB
        moved = self.ept.remap_range(old_start, 64 * KiB, 10 * MiB)
        assert moved == 64 * KiB
        assert self.ept.translate(1 * MiB) == 10 * MiB
        assert self.ept.translate(1 * MiB - PAGE_4K) == hpa + 1 * MiB - PAGE_4K
        assert self.ept.translate(1 * MiB + 64 * KiB) == hpa + 1 * MiB + 64 * KiB

    def test_no_leaf_in_range_returns_zero(self):
        from repro.units import PAGE_2M

        self.ept.map(0, 4 * MiB, PAGE_2M)
        assert self.ept.remap_range(16 * MiB, PAGE_2M, 20 * MiB) == 0
        assert self.ept.translate(0) == 4 * MiB

    def test_4k_leaves_move_individually(self):
        from repro.units import PAGE_4K

        self.ept.map(0, 4 * MiB + PAGE_4K, 4 * PAGE_4K)  # unaligned: 4K leaves
        moved = self.ept.remap_range(4 * MiB + PAGE_4K, 2 * PAGE_4K, 12 * MiB)
        assert moved == 2 * PAGE_4K
        assert self.ept.translate(0) == 12 * MiB
        assert self.ept.translate(PAGE_4K) == 12 * MiB + PAGE_4K
        assert self.ept.translate(2 * PAGE_4K) == 4 * MiB + 3 * PAGE_4K

    def test_rejects_unaligned_arguments(self):
        from repro.errors import EptError
        from repro.units import PAGE_2M

        self.ept.map(0, 4 * MiB, PAGE_2M)
        with pytest.raises(EptError):
            self.ept.remap_range(4 * MiB + 1, PAGE_2M, 8 * MiB)
        with pytest.raises(EptError):
            self.ept.remap_range(4 * MiB, 0, 8 * MiB)
