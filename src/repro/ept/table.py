"""Four-level radix page tables stored in simulated memory (§2.1, §5.1, §5.4).

:class:`ExtendedPageTable` is the repo's one radix table.  Over the
host's :class:`SimulatedDram` it is a VM's EPT (GPA -> HPA) or, as
:class:`~repro.hv.iommu.IommuDomain`, a device's IOMMU table (IOVA ->
HPA); over a :class:`~repro.hv.vm.VirtualMachine` it is a guest page
table (GVA -> GPA) whose nodes live in guest RAM.  The nodes are real
4 KiB pages in that memory; ``translate`` performs an honest walk,
reading each entry's 8 bytes.  Consequences, exactly as on hardware:

- ECC corrects single-bit flips in entries transparently;
- a double-bit flip raises a machine check
  (:class:`~repro.errors.UncorrectableError`);
- a >= 3-bit flip silently yields a *different mapping* — the guest can
  now reach a frame outside its subarray groups.  This is the escape
  Siloz closes with guard rows or secure EPT.

Pass a :class:`~repro.ept.integrity.SecureEptChecker` to get TDX/SNP
detect-on-use behaviour instead.
"""

from __future__ import annotations

import weakref
from typing import Callable, Protocol

from repro.ept.entry import ADDR_MASK, ENTRIES_PER_PAGE, ENTRY_BYTES, LARGE_PAGE, PRESENT
from repro.ept.entry import EptEntry
from repro.ept.integrity import SecureEptChecker
from repro.errors import EptError, EptViolation, HvError
from repro.units import PAGE_2M, PAGE_4K

_LEVELS = 4
_GPA_BITS = 48
#: Where each level's 9-bit entry index sits in a GPA (0 = root PML4,
#: 3 = leaf PT).
_SHIFTS = tuple(12 + 9 * (_LEVELS - 1 - level) for level in range(_LEVELS))
_INDEX_MASK = ENTRIES_PER_PAGE - 1


class Memory(Protocol):
    """Where a table's nodes live: host DRAM or a VM's guest memory."""

    def read(self, addr: int, length: int, *, ecc: bool = True) -> bytes: ...

    def write(self, addr: int, data: bytes) -> None: ...


def weak_table_page_source(owner, alloc: Callable, gone: str) -> Callable[[], int]:
    """A table-page allocator that returns ``alloc(owner)``.

    It holds *owner* (a hypervisor, a guest OS) weakly: the owner also
    owns the table, so a strong back-reference would make the pair a
    reference cycle that only the cyclic garbage collector frees.  A
    table that outlives its owner gets :class:`HvError` (*gone*)."""
    owner_ref = weakref.ref(owner)

    def alloc_table_page() -> int:
        live = owner_ref()
        if live is None:
            raise HvError(gone)
        return alloc(live)

    return alloc_table_page


def ept_page_count(vm_bytes: int, page_size: int = PAGE_2M, *, contiguous: bool = True) -> int:
    """EPT table pages needed to map a VM (paper §5.4 accounting).

    With 2 MiB guest pages, each last-level (PD) page maps 512 * 2 MiB
    = 1 GiB; higher levels add ~1/512 more.  ``contiguous`` backing is
    what makes the count this tight — scattered backing would spread
    entries across many more table pages.
    """
    if vm_bytes <= 0:
        raise EptError("vm_bytes must be positive")
    if page_size == PAGE_2M:
        leaves = -(-vm_bytes // (ENTRIES_PER_PAGE * PAGE_2M))  # PD pages
    elif page_size == PAGE_4K:
        pts = -(-vm_bytes // (ENTRIES_PER_PAGE * PAGE_4K))
        leaves = pts + -(-pts // ENTRIES_PER_PAGE)  # PTs + PDs
    else:
        raise EptError(f"unsupported guest page size {page_size}")
    if not contiguous:
        leaves *= 2  # pessimism for scattered backing
    pdpts = -(-vm_bytes // (512 * 2**30)) if vm_bytes else 1
    return leaves + max(1, pdpts) + 1  # + PDPT(s) + PML4


class ExtendedPageTable:
    """One address space's radix mapping, with its nodes living in *memory*.

    The EPT and the IOMMU pass the host DRAM; a guest OS passes its VM,
    so the guest's page-table walks go through the EPT in turn."""

    def __init__(
        self,
        memory: Memory,
        alloc_table_page: Callable[[], int],
        *,
        checker: SecureEptChecker | None = None,
        ecc_reads: bool = True,
    ):
        self.memory = memory
        self._alloc = alloc_table_page
        self.checker = checker
        self.ecc_reads = ecc_reads
        self.table_pages: list[int] = []
        self.root = self._new_table_page()
        self.mapped_bytes = 0

    # ------------------------------------------------------------------

    def _new_table_page(self) -> int:
        addr = self._alloc()
        if addr % PAGE_4K != 0:
            raise EptError(f"table page {addr:#x} not 4 KiB aligned")
        self.memory.write(addr, bytes(PAGE_4K))
        self.table_pages.append(addr)
        return addr

    def _read_value(self, addr: int) -> int:
        """The raw 64-bit entry at *addr* (one 8-byte read, verified by
        the checker if any); the walks test its bits directly."""
        raw = self.memory.read(addr, ENTRY_BYTES, ecc=self.ecc_reads)
        if self.checker is not None:
            self.checker.verify(addr, raw)
        return int.from_bytes(raw, "little")

    def _write_entry(self, addr: int, entry: EptEntry) -> None:
        raw = entry.pack()
        self.memory.write(addr, raw)
        if self.checker is not None:
            if entry.present:
                self.checker.record(addr, raw)
            else:
                self.checker.forget(addr)

    def _leaf(self, gpa: int) -> tuple[int, EptEntry, int]:
        """The one lookup walk: ``(entry address, entry, level)`` of the
        leaf mapping *gpa* — a 2 MiB leaf on level 2 or a 4 KiB leaf on
        level 3, the only places :meth:`map` writes leaves.  Raises
        :class:`EptViolation` at the first absent entry."""
        if not 0 <= gpa < 1 << _GPA_BITS:
            raise EptViolation(f"GPA {gpa:#x} outside the {_GPA_BITS}-bit address space")
        table = self.root
        for level, shift in enumerate(_SHIFTS):
            addr = table + ((gpa >> shift) & _INDEX_MASK) * ENTRY_BYTES
            value = self._read_value(addr)
            if not value & PRESENT:
                raise EptViolation(f"GPA {gpa:#x} not mapped (level {level})")
            if level == _LEVELS - 1 or (value & LARGE_PAGE and level == 2):
                return addr, EptEntry(value), level
            table = value & ADDR_MASK
        raise EptError("unreachable")

    # ------------------------------------------------------------------

    def map(self, gpa: int, hpa: int, size: int) -> None:
        """Map [gpa, gpa+size) -> [hpa, hpa+size) using 2 MiB leaves
        where alignment allows, 4 KiB otherwise."""
        if size <= 0 or gpa % PAGE_4K or hpa % PAGE_4K or size % PAGE_4K:
            raise EptError(
                f"mapping must be page-aligned: gpa={gpa:#x} hpa={hpa:#x} size={size:#x}"
            )
        if gpa + size > 1 << _GPA_BITS:
            raise EptError(f"GPA range end {gpa + size:#x} exceeds {_GPA_BITS}-bit space")
        done = 0
        while done < size:
            g, h = gpa + done, hpa + done
            if g % PAGE_2M == 0 and h % PAGE_2M == 0 and size - done >= PAGE_2M:
                self._map_one(g, h, large=True)
                done += PAGE_2M
            else:
                self._map_one(g, h, large=False)
                done += PAGE_4K
        self.mapped_bytes += size

    def _map_one(self, gpa: int, hpa: int, *, large: bool) -> None:
        """The one creating walk: allocates missing tables on the way
        down to the leaf."""
        table = self.root
        leaf_level = 2 if large else 3
        for shift in _SHIFTS[:leaf_level]:
            addr = table + ((gpa >> shift) & _INDEX_MASK) * ENTRY_BYTES
            value = self._read_value(addr)
            if not value & PRESENT:
                table = self._new_table_page()
                self._write_entry(addr, EptEntry.make(table))
            elif value & LARGE_PAGE:
                raise EptError(f"GPA {gpa:#x} already covered by a large mapping")
            else:
                table = value & ADDR_MASK
        addr = table + ((gpa >> _SHIFTS[leaf_level]) & _INDEX_MASK) * ENTRY_BYTES
        if self._read_value(addr) & PRESENT:
            raise EptError(f"GPA {gpa:#x} already mapped")
        self._write_entry(addr, EptEntry.make(hpa, large=large))

    def unmap(self, gpa: int, size: int) -> None:
        """Clear the leaf entries covering [gpa, gpa+size).

        A range that covers only part of a 2 MiB leaf, or reaches an
        unmapped page, is refused and the leaves it already cleared are
        restored, so a refused call leaves the table as it was."""
        if size <= 0 or gpa % PAGE_4K or size % PAGE_4K:
            raise EptError("unmap must be page-aligned")
        end = gpa + size
        cleared: list[tuple[int, EptEntry]] = []
        try:
            g = gpa
            while g < end:
                addr, entry, level = self._leaf(g)
                step = PAGE_2M if level == 2 else PAGE_4K
                if g % step or end - g < step:
                    raise EptError(
                        f"unmap [{gpa:#x}, {end:#x}) covers only part of the "
                        f"2 MiB leaf at GPA {g - g % step:#x}"
                    )
                self._write_entry(addr, EptEntry.empty())
                cleared.append((addr, entry))
                g += step
        except EptError:
            for addr, entry in reversed(cleared):
                self._write_entry(addr, entry)
            raise
        self.mapped_bytes = max(0, self.mapped_bytes - size)

    # ------------------------------------------------------------------

    def remap_range(self, old_start: int, size: int, new_start: int) -> int:
        """Retarget every leaf pointing into [old_start, old_start+size)
        to ``new_start + offset`` — the EPT half of live page migration.

        The guest-physical layout is untouched: only the *host* frames
        behind the leaves change, exactly like Linux's memory-failure
        soft offlining rewrites PTEs after copying a page.  Large (2 MiB)
        leaves that only partially overlap the old range are split into
        4 KiB leaves so the overlapping pieces can be retargeted while
        the rest stays on its original frames.  Returns the number of
        mapped bytes that were retargeted (0 when no leaf points into
        the range).
        """
        if size <= 0 or old_start % PAGE_4K or new_start % PAGE_4K or size % PAGE_4K:
            raise EptError(
                f"remap must be page-aligned: old={old_start:#x} "
                f"new={new_start:#x} size={size:#x}"
            )
        old_end = old_start + size
        delta = new_start - old_start
        # Collect first, mutate after: splitting a leaf mid-walk would
        # invalidate the traversal.
        hits: list[tuple[int, EptEntry, int, int]] = []
        self._walk_leaves(self.root, 0, 0, old_start, old_end, hits)
        moved = 0
        for addr, entry, gpa, lbytes in hits:
            tgt = entry.target_hpa
            if tgt >= old_start and tgt + lbytes <= old_end:
                self._write_entry(addr, EptEntry.make(tgt + delta, large=entry.large))
                moved += lbytes
            else:  # large leaf straddling the range boundary: split to 4K
                self.unmap(gpa, lbytes)
                for off in range(0, lbytes, PAGE_4K):
                    piece = tgt + off
                    inside = old_start <= piece < old_end
                    self._map_one(gpa + off, piece + delta if inside else piece, large=False)
                    if inside:
                        moved += PAGE_4K
                self.mapped_bytes += lbytes
        return moved

    def _walk_leaves(
        self,
        table: int,
        level: int,
        gpa_base: int,
        old_start: int,
        old_end: int,
        hits: list[tuple[int, EptEntry, int, int]],
    ) -> None:
        """Depth-first leaf scan; reads each table page with one memory
        access (not 512) so the walk itself barely disturbs the media."""
        page = self.memory.read(table, PAGE_4K, ecc=self.ecc_reads)
        shift = _SHIFTS[level]
        for index in range(ENTRIES_PER_PAGE):
            raw = bytes(page[index * ENTRY_BYTES : (index + 1) * ENTRY_BYTES])
            entry = EptEntry.unpack(raw)
            if not entry.present:
                continue
            addr = table + index * ENTRY_BYTES
            if self.checker is not None:
                self.checker.verify(addr, raw)
            gpa = gpa_base + (index << shift)
            if entry.large and level == 2:
                if entry.target_hpa < old_end and entry.target_hpa + PAGE_2M > old_start:
                    hits.append((addr, entry, gpa, PAGE_2M))
            elif level == _LEVELS - 1:
                if old_start <= entry.target_hpa < old_end:
                    hits.append((addr, entry, gpa, PAGE_4K))
            else:
                self._walk_leaves(
                    entry.target_hpa, level + 1, gpa, old_start, old_end, hits
                )

    def translate(self, gpa: int) -> int:
        """Walk the table in memory; returns the address *gpa* maps to.

        Raises :class:`EptViolation` for unmapped GPAs (a VM exit),
        :class:`~repro.errors.UncorrectableError` on a double-bit-flipped
        entry (machine check), or
        :class:`~repro.errors.EptIntegrityError` when a secure entry
        fails its check.  A silently-corrupted entry returns a wrong —
        but usable — HPA, which is the attack."""
        _, entry, level = self._leaf(gpa)
        offset_mask = PAGE_2M - 1 if level == 2 else PAGE_4K - 1
        return entry.target_hpa + (gpa & offset_mask)

    def leaf_entry_addr(self, gpa: int) -> int:
        """HPA of the leaf entry mapping *gpa* (where a targeted flip
        would have to land) — used by the EPT-attack experiments."""
        return self._leaf(gpa)[0]
