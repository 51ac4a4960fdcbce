"""Binary-buddy page allocator, Linux-style.

One allocator instance manages one or more host-physical address ranges
(a logical NUMA node's subarray group ranges, §5.2).  The allocator
hands out naturally-aligned power-of-two blocks from 4 KiB up to 1 GiB,
splitting and (on free) re-coalescing buddies.  ``reserve_range`` pulls
arbitrary sub-ranges out of the free pool — the primitive page offlining
(guard rows, §5.4; repaired rows, §6) is built on.

Free memory is a running count (``free_bytes``), updated only where
bytes enter or leave the free lists, the way Linux keeps
``NR_FREE_PAGES``: splitting and coalescing move no bytes, so reading
it never walks a list.
"""

from __future__ import annotations

from repro.dram.mapping import AddressRange
from repro.errors import MmError, OutOfMemoryError
from repro.units import GiB, PAGE_4K

#: Smallest allocatable block.
MIN_BLOCK: int = PAGE_4K
#: Largest buddy order block (1 GiB = order 18 above 4 KiB).
MAX_BLOCK: int = GiB
MAX_ORDER: int = (MAX_BLOCK // MIN_BLOCK).bit_length() - 1  # 18


def order_of(size: int) -> int:
    """Smallest buddy order whose block covers *size* bytes."""
    if size <= 0:
        raise MmError(f"size must be positive, got {size}")
    if size > MAX_BLOCK:
        raise MmError(f"size {size} exceeds max buddy block {MAX_BLOCK}")
    blocks = -(-size // MIN_BLOCK)
    return (blocks - 1).bit_length()


class BuddyAllocator:
    """Buddy allocator over a set of address ranges.

    Free blocks are tracked per order as sets of start addresses.  A
    block of order k starting at addr has its buddy at ``addr ^ (size)``;
    alignment is relative to address 0 (host physical), matching how
    Linux's zone allocator aligns to PFN 0.
    """

    def __init__(self, ranges: list[AddressRange]):
        if not ranges:
            raise MmError("allocator needs at least one range")
        self._free: list[set[int]] = [set() for _ in range(MAX_ORDER + 1)]
        #: Bytes on the free lists, kept by every method that adds a
        #: block to them or takes one off.
        self.free_bytes = 0
        self._allocated: dict[int, int] = {}  # start -> order
        self._quarantined: dict[int, int] = {}  # start -> order (soak, §health)
        self.retired_bytes = 0  # permanently removed (runtime offlining)
        self.ranges = list(ranges)
        for r in ranges:
            self._seed_range(r)
        self.total_bytes = sum(r.size for r in ranges)

    def _seed_range(self, r: AddressRange) -> None:
        if r.start % MIN_BLOCK or r.size % MIN_BLOCK:
            raise MmError(f"range {r} not page-aligned")
        addr = r.start
        while addr < r.end:
            # Largest naturally-aligned block that fits.
            order = MAX_ORDER
            while order > 0 and (
                addr % (MIN_BLOCK << order) != 0 or addr + (MIN_BLOCK << order) > r.end
            ):
                order -= 1
            self._free[order].add(addr)
            addr += MIN_BLOCK << order
        self.free_bytes += r.size

    # ------------------------------------------------------------------

    @property
    def allocated_bytes(self) -> int:
        return sum(MIN_BLOCK << o for o in self._allocated.values())

    def alloc(self, order: int) -> int:
        """Allocate a block of the given order; returns its address."""
        if not 0 <= order <= MAX_ORDER:
            raise MmError(f"order {order} out of range [0, {MAX_ORDER}]")
        current = order
        while current <= MAX_ORDER and not self._free[current]:
            current += 1
        if current > MAX_ORDER:
            raise OutOfMemoryError(
                f"no free block of order >= {order} "
                f"({self.free_bytes} bytes free but fragmented or exhausted)"
            )
        addr = min(self._free[current])  # deterministic: lowest address
        self._free[current].remove(addr)
        while current > order:  # split down
            current -= 1
            half = MIN_BLOCK << current
            self._free[current].add(addr + half)
        self._allocated[addr] = order
        self.free_bytes -= MIN_BLOCK << order
        return addr

    def alloc_bytes(self, size: int) -> int:
        """Allocate the smallest block covering *size* bytes."""
        return self.alloc(order_of(size))

    def free(self, addr: int) -> None:
        """Free a previously-allocated block, coalescing buddies."""
        order = self._allocated.pop(addr, None)
        if order is None:
            raise MmError(f"free of unallocated address {addr:#x}")
        self.free_bytes += MIN_BLOCK << order
        while order < MAX_ORDER:
            size = MIN_BLOCK << order
            buddy = addr ^ size
            if buddy not in self._free[order]:
                break
            # Buddies must also be in the same managed range to merge.
            self._free[order].remove(buddy)
            addr = min(addr, buddy)
            order += 1
        self._free[order].add(addr)

    # ------------------------------------------------------------------

    def reserve_range(self, target: AddressRange) -> None:
        """Remove [target.start, target.end) from the free pool.

        Every page of the target must currently be free; blocks that
        partially overlap are split until the target is exactly covered.
        A target that is not fully free raises and leaves the pool as it
        was.  Used to offline guard rows and repair holes before any
        allocations happen (§5.4, §6).
        """
        if target.start % MIN_BLOCK or target.size % MIN_BLOCK:
            raise MmError(f"reserve target {target} not page-aligned")
        covered = sum(
            min(addr + size, target.end) - max(addr, target.start)
            for addr, size in self.free_blocks_within(target)
        )
        if covered != target.size:
            raise MmError(f"range {target} not fully free; cannot reserve")
        self._carve(target)

    def _carve(self, target: AddressRange) -> list[tuple[int, int]]:
        """Take every free page inside the page-aligned *target* off the
        free lists, splitting blocks that straddle its edges; returns
        the removed (addr, order) blocks in removal order.  An empty
        target neither carves nor splits."""
        taken = []
        if not target.size:
            return taken
        progressed = True
        while progressed:
            progressed = False
            for order in range(MAX_ORDER + 1):
                size = MIN_BLOCK << order
                for addr in list(self._free[order]):
                    if addr >= target.end or addr + size <= target.start:
                        continue
                    self._free[order].remove(addr)
                    if target.start <= addr and addr + size <= target.end:
                        taken.append((addr, order))
                        self.free_bytes -= size
                    else:  # straddles an edge, so order > 0: split
                        self._free[order - 1].add(addr)
                        self._free[order - 1].add(addr + size // 2)
                    progressed = True
        return taken

    # ------------------------------------------------------------------
    # Runtime fault handling: quarantine, retirement, block queries
    # ------------------------------------------------------------------

    @property
    def quarantined_bytes(self) -> int:
        return sum(MIN_BLOCK << o for o in self._quarantined.values())

    def free_blocks_within(self, target: AddressRange) -> list[tuple[int, int]]:
        """(addr, size) of every free block overlapping *target*, sorted."""
        out = []
        for order, blocks in enumerate(self._free):
            size = MIN_BLOCK << order
            for addr in blocks:
                if AddressRange(addr, addr + size).overlaps(target):
                    out.append((addr, size))
        return sorted(out)

    def allocated_blocks_within(self, target: AddressRange) -> list[tuple[int, int]]:
        """(addr, size) of every allocated block overlapping *target*,
        sorted — the pages live migration must move before offlining."""
        out = []
        for addr, order in self._allocated.items():
            size = MIN_BLOCK << order
            if AddressRange(addr, addr + size).overlaps(target):
                out.append((addr, size))
        return sorted(out)

    def quarantine_range(self, target: AddressRange) -> int:
        """Pull every currently-free page inside *target* out of the free
        pool (splitting partially-overlapping blocks), without requiring
        the range to be fully free — unlike :meth:`reserve_range`, which
        is the boot-time primitive.  This is the *soak* step of runtime
        fault handling: already-allocated pages stay in place (they will
        be migrated), but no new allocation can land in the range.
        Returns the number of bytes quarantined; undo with
        :meth:`release_quarantine`, make permanent with
        :meth:`finalize_quarantine`."""
        if target.start % MIN_BLOCK or target.size % MIN_BLOCK:
            raise MmError(f"quarantine target {target} not page-aligned")
        taken = self._carve(target)
        self._quarantined.update(taken)
        return sum(MIN_BLOCK << order for _, order in taken)

    def release_quarantine(self, target: AddressRange | None = None) -> int:
        """Return quarantined blocks (all, or those inside *target*) to
        the free pool, re-coalescing buddies — the de-escalation path
        when a soaked row group recovers."""
        released = 0
        for addr, order in sorted(self._quarantined.items()):
            size = MIN_BLOCK << order
            if target is not None and not AddressRange(addr, addr + size).overlaps(
                target
            ):
                continue
            del self._quarantined[addr]
            self._allocated[addr] = order  # free() coalesces from here
            self.free(addr)
            released += size
        return released

    def finalize_quarantine(self, target: AddressRange) -> int:
        """Permanently retire the quarantined blocks inside *target*
        (runtime offlining: the frames leave circulation for good)."""
        done = 0
        for addr, order in sorted(self._quarantined.items()):
            size = MIN_BLOCK << order
            if AddressRange(addr, addr + size).overlaps(target):
                del self._quarantined[addr]
                self.retired_bytes += size
                done += size
        return done

    def retire(self, addr: int) -> int:
        """Permanently remove an *allocated* block from circulation
        (after its contents were migrated elsewhere); returns its size.
        Unlike :meth:`free`, the frames never return to the free pool."""
        order = self._allocated.pop(addr, None)
        if order is None:
            raise MmError(f"retire of unallocated address {addr:#x}")
        size = MIN_BLOCK << order
        self.retired_bytes += size
        return size

    def contains(self, addr: int) -> bool:
        return any(addr in r for r in self.ranges)
