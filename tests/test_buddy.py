"""Unit tests for the buddy allocator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.mapping import AddressRange
from repro.errors import MmError, OutOfMemoryError
from repro.mm.buddy import MAX_BLOCK, MIN_BLOCK, BuddyAllocator, order_of
from repro.units import GiB, KiB, MiB, PAGE_2M, PAGE_4K


def make(size=16 * MiB, base=0):
    return BuddyAllocator([AddressRange(base, base + size)])


def recount(alloc):
    """Free bytes summed over every free list (what ``free_bytes`` must equal)."""
    return sum(len(s) * (MIN_BLOCK << o) for o, s in enumerate(alloc._free))


class TestOrderOf:
    def test_page(self):
        assert order_of(PAGE_4K) == 0
        assert order_of(1) == 0

    def test_two_pages(self):
        assert order_of(2 * PAGE_4K) == 1
        assert order_of(PAGE_4K + 1) == 1

    def test_2m(self):
        assert order_of(PAGE_2M) == 9

    def test_1g(self):
        assert order_of(GiB) == 18

    def test_rejects_oversize(self):
        with pytest.raises(MmError):
            order_of(MAX_BLOCK + 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(MmError):
            order_of(0)


class TestBasicAllocation:
    def test_total_and_free(self):
        alloc = make()
        assert alloc.total_bytes == 16 * MiB
        assert alloc.free_bytes == 16 * MiB

    def test_alloc_reduces_free(self):
        alloc = make()
        alloc.alloc(0)
        assert alloc.free_bytes == 16 * MiB - PAGE_4K
        assert alloc.allocated_bytes == PAGE_4K

    def test_alloc_is_lowest_address_first(self):
        alloc = make(base=1 * MiB)
        assert alloc.alloc(0) == 1 * MiB

    def test_alloc_bytes_rounds_up(self):
        alloc = make()
        a = alloc.alloc_bytes(5 * KiB)  # order 1 = 8 KiB
        b = alloc.alloc_bytes(PAGE_4K)
        assert b == a + 8 * KiB

    def test_blocks_naturally_aligned(self):
        alloc = make()
        addr = alloc.alloc_bytes(PAGE_2M)
        assert addr % PAGE_2M == 0

    def test_oom(self):
        alloc = make(size=64 * KiB)
        with pytest.raises(OutOfMemoryError):
            alloc.alloc_bytes(128 * KiB)

    def test_bad_order_rejected(self):
        with pytest.raises(MmError):
            make().alloc(-1)

    def test_unaligned_range_rejected(self):
        with pytest.raises(MmError):
            BuddyAllocator([AddressRange(100, 5000)])

    def test_empty_ranges_rejected(self):
        with pytest.raises(MmError):
            BuddyAllocator([])


class TestFreeAndCoalesce:
    def test_free_restores(self):
        alloc = make()
        addr = alloc.alloc_bytes(PAGE_2M)
        alloc.free(addr)
        assert alloc.free_bytes == 16 * MiB

    def test_double_free_rejected(self):
        alloc = make()
        addr = alloc.alloc(0)
        alloc.free(addr)
        with pytest.raises(MmError):
            alloc.free(addr)

    def test_free_unallocated_rejected(self):
        with pytest.raises(MmError):
            make().free(0x5000)

    def test_coalescing_rebuilds_large_blocks(self):
        alloc = make(size=2 * PAGE_2M)
        pages = [alloc.alloc(0) for _ in range(512)]  # a full 2 MiB of 4K
        with_frag = alloc.alloc_bytes(PAGE_2M)  # second 2 MiB still whole
        alloc.free(with_frag)
        for p in pages:
            alloc.free(p)
        # Everything coalesced: two 2 MiB allocations succeed again.
        a = alloc.alloc_bytes(PAGE_2M)
        b = alloc.alloc_bytes(PAGE_2M)
        assert {a, b} == {0, PAGE_2M}

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_alloc_free_conserves_memory(self, orders):
        alloc = make(size=4 * MiB)
        addrs = []
        for order in orders:
            try:
                addrs.append(alloc.alloc(order))
            except OutOfMemoryError:
                break
        expected = 4 * MiB - sum(
            MIN_BLOCK << o for o, _ in zip(orders, addrs)
        )
        assert alloc.free_bytes == expected
        for addr in addrs:
            alloc.free(addr)
        assert alloc.free_bytes == 4 * MiB


class TestMultiRange:
    """Logical nodes can own several disjoint subarray-group ranges."""

    def test_allocates_across_ranges(self):
        alloc = BuddyAllocator(
            [AddressRange(0, 1 * MiB), AddressRange(8 * MiB, 9 * MiB)]
        )
        assert alloc.total_bytes == 2 * MiB
        seen = {alloc.alloc_bytes(1 * MiB) for _ in range(2)}
        assert seen == {0, 8 * MiB}

    def test_contains(self):
        alloc = BuddyAllocator(
            [AddressRange(0, 1 * MiB), AddressRange(8 * MiB, 9 * MiB)]
        )
        assert alloc.contains(0) and alloc.contains(8 * MiB)
        assert not alloc.contains(4 * MiB)

    def test_non_power_of_two_range(self):
        # 1.5 GiB-style ranges must seed cleanly (3 x 512 MiB etc.).
        alloc = BuddyAllocator([AddressRange(0, 3 * MiB // 2)])
        assert alloc.free_bytes == 3 * MiB // 2
        alloc.alloc_bytes(1 * MiB)
        alloc.alloc_bytes(512 * KiB)
        with pytest.raises(OutOfMemoryError):
            alloc.alloc(0)


class TestReserveRange:
    def test_reserve_excludes_pages(self):
        alloc = make(size=1 * MiB)
        target = AddressRange(64 * KiB, 128 * KiB)
        alloc.reserve_range(target)
        assert alloc.free_bytes == 1 * MiB - 64 * KiB
        # Every subsequent allocation avoids the reserved range.
        addrs = [alloc.alloc(0) for _ in range((1 * MiB - 64 * KiB) // PAGE_4K)]
        assert all(not (target.start <= a < target.end) for a in addrs)

    def test_reserve_unaligned_rejected(self):
        with pytest.raises(MmError):
            make().reserve_range(AddressRange(100, 4196))

    def test_reserve_allocated_range_fails(self):
        alloc = make(size=64 * KiB)
        addr = alloc.alloc(0)
        with pytest.raises(MmError):
            alloc.reserve_range(AddressRange(addr, addr + PAGE_4K))

    def test_reserve_whole_pool(self):
        alloc = make(size=256 * KiB)
        alloc.reserve_range(AddressRange(0, 256 * KiB))
        assert alloc.free_bytes == 0
        with pytest.raises(OutOfMemoryError):
            alloc.alloc(0)

    def test_reserve_single_page(self):
        alloc = make(size=256 * KiB)
        alloc.reserve_range(AddressRange(PAGE_4K, 2 * PAGE_4K))
        assert alloc.free_bytes == 256 * KiB - PAGE_4K

    def test_reserve_splits_to_an_exact_cover(self):
        alloc = make(size=1 * MiB)
        alloc.reserve_range(AddressRange(64 * KiB, 128 * KiB))
        by_size = {
            MIN_BLOCK << o: sorted(s) for o, s in enumerate(alloc._free) if s
        }
        assert by_size == {
            64 * KiB: [0],
            128 * KiB: [128 * KiB],
            256 * KiB: [256 * KiB],
            512 * KiB: [512 * KiB],
        }

    def test_failed_reserve_leaves_pool_unchanged(self):
        # Page 0 is allocated, so [0, 32 KiB) is only partly free: the
        # call must raise before carving any of the free pages out.
        alloc = make(size=64 * KiB)
        alloc.alloc(0)
        before = [set(s) for s in alloc._free]
        with pytest.raises(MmError):
            alloc.reserve_range(AddressRange(0, 0x8000))
        assert alloc._free == before
        assert alloc.free_bytes == 64 * KiB - PAGE_4K == recount(alloc)
        assert alloc.allocated_bytes == PAGE_4K
        assert alloc.quarantined_bytes == alloc.retired_bytes == 0


class TestQuarantine:
    def test_quarantine_tolerates_allocated_blocks(self):
        alloc = make(size=1 * MiB)
        addr = alloc.alloc_bytes(64 * KiB)  # lowest address: inside target
        target = AddressRange(0, 128 * KiB)
        moved = alloc.quarantine_range(target)
        assert moved == 128 * KiB - 64 * KiB  # only the free half moved
        assert alloc.quarantined_bytes == 64 * KiB
        assert alloc.allocated_blocks_within(target) == [(addr, 64 * KiB)]
        # Nothing new lands in the quarantined range.
        others = [alloc.alloc(0) for _ in range(16)]
        assert all(a not in target for a in others)

    def test_release_restores_and_coalesces(self):
        alloc = make(size=1 * MiB)
        before = alloc.free_bytes
        alloc.quarantine_range(AddressRange(64 * KiB, 192 * KiB))
        assert alloc.free_bytes == before - 128 * KiB
        released = alloc.release_quarantine()
        assert released == 128 * KiB
        assert alloc.free_bytes == before
        assert alloc.quarantined_bytes == 0
        # Coalescing happened: the full pool is allocatable as one block.
        assert alloc.alloc_bytes(1 * MiB) == 0

    def test_release_scoped_to_target(self):
        alloc = make(size=1 * MiB)
        alloc.quarantine_range(AddressRange(0, 64 * KiB))
        alloc.quarantine_range(AddressRange(128 * KiB, 192 * KiB))
        released = alloc.release_quarantine(AddressRange(0, 64 * KiB))
        assert released == 64 * KiB
        assert alloc.quarantined_bytes == 64 * KiB

    def test_finalize_retires_for_good(self):
        alloc = make(size=1 * MiB)
        target = AddressRange(0, 64 * KiB)
        alloc.quarantine_range(target)
        done = alloc.finalize_quarantine(target)
        assert done == 64 * KiB
        assert alloc.retired_bytes == 64 * KiB
        assert alloc.quarantined_bytes == 0
        assert alloc.free_bytes == 1 * MiB - 64 * KiB

    def test_unaligned_quarantine_rejected(self):
        with pytest.raises(MmError):
            make().quarantine_range(AddressRange(100, 4196))

    def test_empty_target_leaves_free_lists_unchanged(self):
        # An empty range inside the one 1 MiB block must not split it.
        alloc = make(size=1 * MiB)
        before = [set(s) for s in alloc._free]
        empty = AddressRange(64 * KiB, 64 * KiB)
        assert alloc.quarantine_range(empty) == 0
        alloc.reserve_range(empty)
        assert alloc._free == before
        assert alloc.free_bytes == 1 * MiB == recount(alloc)
        assert alloc.quarantined_bytes == 0


class TestRetire:
    def test_retire_allocated_block(self):
        alloc = make(size=1 * MiB)
        addr = alloc.alloc_bytes(64 * KiB)
        size = alloc.retire(addr)
        assert size == 64 * KiB
        assert alloc.retired_bytes == 64 * KiB
        # The frames never come back.
        assert alloc.free_bytes == 1 * MiB - 64 * KiB
        with pytest.raises(MmError):
            alloc.free(addr)

    def test_retire_unallocated_rejected(self):
        with pytest.raises(MmError):
            make().retire(0x3000)


class TestFreeByteCounter:
    """``free_bytes`` is a running count kept where blocks enter or
    leave the free lists; after any sequence of operations it equals a
    full recount, and every byte is free, allocated, quarantined,
    retired or reserved."""

    OPS = ("alloc", "free", "reserve", "quarantine", "release", "finalize", "retire")

    @staticmethod
    def _allocator(rng):
        ranges, base = [], rng.randint(0, 64) * PAGE_4K
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(1, 96) * PAGE_4K
            ranges.append(AddressRange(base, base + size))
            base += size + rng.randint(0, 16) * PAGE_4K
        return BuddyAllocator(ranges)

    def test_counter_matches_recount(self):
        for seed in range(200):
            rng = random.Random(seed)
            alloc = self._allocator(rng)
            lo, hi = alloc.ranges[0].start, alloc.ranges[-1].end
            reserved = 0
            for step in range(60):
                op = rng.choice(self.OPS)
                start = rng.randrange(lo, hi, PAGE_4K)
                target = AddressRange(start, start + rng.randint(0, 16) * PAGE_4K)
                allocated = sorted(alloc._allocated)
                if op == "alloc":
                    try:
                        alloc.alloc(rng.randint(0, 5))
                    except OutOfMemoryError:
                        pass
                elif op == "free" and allocated:
                    alloc.free(rng.choice(allocated))
                elif op == "retire" and allocated:
                    alloc.retire(rng.choice(allocated))
                elif op == "reserve":
                    before = [set(s) for s in alloc._free]
                    try:
                        alloc.reserve_range(target)
                        reserved += target.size
                    except MmError:
                        assert alloc._free == before, (seed, step)
                elif op == "quarantine":
                    alloc.quarantine_range(target)
                elif op == "release":
                    alloc.release_quarantine(rng.choice((None, target)))
                elif op == "finalize":
                    alloc.finalize_quarantine(target)
                where = (seed, step, op)
                assert alloc.free_bytes == recount(alloc), where
                assert (
                    alloc.free_bytes
                    + alloc.allocated_bytes
                    + alloc.quarantined_bytes
                    + alloc.retired_bytes
                    + reserved
                    == alloc.total_bytes
                ), where
