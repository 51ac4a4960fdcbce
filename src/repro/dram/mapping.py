"""Physical-to-media address decode (paper §2.4, §4.2).

Commodity servers interleave sequential cache lines across a socket's
banks to get bank-level parallelism.  On the paper's Intel Skylake
platform the decode has three levels of structure that Siloz depends on:

1. **Line interleave.**  Within a *row group* (the same row number in
   every bank of the socket, Fig. 2), consecutive cache lines round-robin
   across all banks.
2. **Chunk alternation.**  Ascending physical addresses fill ascending
   row groups, but every ``n`` row groups (n=16, i.e. 24 MiB on the paper
   geometry) alternate between two individually-contiguous physical
   ranges A and B.
3. **768 MiB jumps.**  The A/B pattern restarts with fresh ranges at each
   768 MiB-aligned boundary ("mapping jump"), which is why 1 GiB pages do
   not inherently sit in one subarray group while 2 MiB pages do.

:class:`SkylakeMapping` implements the decode, its exact inverse, and the
boot-time solver Siloz uses to turn a subarray group into host-physical
address ranges (§5.3).  The shape is parametrised so the small test
geometry exercises every branch.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field

from repro.dram.geometry import DRAMGeometry
from repro.dram.media import MediaAddress
from repro.errors import MappingError
from repro.units import CACHE_LINE

#: Entries kept in a mapping's decode LRU (:meth:`SkylakeMapping.decode_flat`),
#: which serves the memory controllers, the simulated module's sub-line
#: accesses (page-table entries) and the hypervisor's per-address
#: lookups.  Sized for the working sets of the perf experiments and a
#: host's placement traffic (thousands of distinct cache lines) while
#: bounding memory on adversarial scans.
DECODE_CACHE_SIZE = 1 << 16


@dataclass(frozen=True)
class AddressRange:
    """A half-open host-physical address range [start, end)."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise MappingError(f"bad address range [{self.start:#x}, {self.end:#x})")

    @property
    def size(self) -> int:
        return self.end - self.start

    def __contains__(self, hpa: int) -> bool:
        return self.start <= hpa < self.end

    def overlaps(self, other: "AddressRange") -> bool:
        return self.start < other.end and other.start < self.end

    def __str__(self) -> str:
        return f"[{self.start:#x}, {self.end:#x})"


def merge_ranges(ranges: list[AddressRange]) -> list[AddressRange]:
    """Coalesce adjacent/overlapping ranges; result is sorted."""
    out: list[AddressRange] = []
    for r in sorted(ranges, key=lambda r: r.start):
        if out and r.start <= out[-1].end:
            out[-1] = AddressRange(out[-1].start, max(out[-1].end, r.end))
        else:
            out.append(r)
    return out


def subtract_ranges(
    ranges: list[AddressRange], holes: list[AddressRange]
) -> list[AddressRange]:
    """Remove *holes* from *ranges*; both inputs may be unsorted.

    Used when carving the EPT row group out of its host-reserved
    subarray group (§5.4)."""
    result = merge_ranges(ranges)
    for hole in merge_ranges(holes):
        next_result: list[AddressRange] = []
        for r in result:
            if not r.overlaps(hole):
                next_result.append(r)
                continue
            if r.start < hole.start:
                next_result.append(AddressRange(r.start, hole.start))
            if hole.end < r.end:
                next_result.append(AddressRange(hole.end, r.end))
        result = next_result
    return result


@dataclass(frozen=True)
class SkylakeMapping:
    """Invertible physical-to-media decode with chunk alternation.

    ``chunk_row_groups`` is the paper's *n* (16); ``chunks_per_range`` is
    how many chunks each of the A and B ranges contributes to a mapping
    region, so a region spans ``2 * chunks_per_range * chunk_row_groups``
    row groups (512 on the paper geometry = 768 MiB).
    """

    geom: DRAMGeometry
    chunk_row_groups: int = 16
    chunks_per_range: int = 16
    _socket_bases: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        g = self.geom
        if self.chunk_row_groups <= 0 or self.chunks_per_range <= 0:
            raise MappingError("chunk_row_groups and chunks_per_range must be positive")
        if g.rows_per_bank % self.region_row_groups != 0:
            raise MappingError(
                f"rows_per_bank ({g.rows_per_bank}) must be a multiple of the "
                f"mapping region ({self.region_row_groups} row groups)"
            )
        # Ascending sockets own ascending contiguous HPA ranges.
        bases = tuple(s * g.socket_bytes for s in range(g.sockets))
        object.__setattr__(self, "_socket_bases", bases)
        # Hot-path memoization (repro.engine): the chunk permutation as
        # flat lookup tables, the derived shape as plain ints (the
        # properties recompute products on every call), and the
        # LRU-wrapped flat decoder bound as an instance attribute.  All
        # are pure functions of the frozen fields, so caching cannot
        # change results — the mapping property tests verify cached ==
        # uncached.  A miss looks ``_decode_flat`` up at call time, so a
        # wrapper installed on the class later still sees every miss.
        n_chunks = 2 * self.chunks_per_range
        object.__setattr__(
            self,
            "_phys2rg",
            tuple(self._phys_chunk_to_rg_chunk(c) for c in range(n_chunks)),
        )
        object.__setattr__(
            self,
            "_rg2phys",
            tuple(self._rg_chunk_to_phys_chunk(c) for c in range(n_chunks)),
        )
        object.__setattr__(self, "_c_chunk_bytes", self.chunk_bytes)
        object.__setattr__(self, "_c_region_bytes", self.region_bytes)
        object.__setattr__(self, "_c_region_rgs", self.region_row_groups)
        object.__setattr__(self, "_c_rg_bytes", g.row_group_bytes)
        object.__setattr__(self, "_c_banks_per_socket", g.banks_per_socket)
        object.__setattr__(self, "_c_banks_per_channel", g.banks_per_channel)
        object.__setattr__(self, "_c_socket_bytes", g.socket_bytes)
        object.__setattr__(self, "_c_total_bytes", g.total_bytes)
        # The LRU reaches the mapping through a weak reference: a strong
        # one would make every mapping (and its up to DECODE_CACHE_SIZE
        # entries) a cycle that only the cyclic collector frees.
        mapping_ref = weakref.ref(self)
        object.__setattr__(
            self,
            "decode_flat",
            functools.lru_cache(maxsize=DECODE_CACHE_SIZE)(
                lambda hpa: mapping_ref()._decode_flat(hpa)
            ),
        )

    @classmethod
    def for_small_geometry(cls, geom: DRAMGeometry) -> "SkylakeMapping":
        """A proportionally-scaled mapping for tiny test geometries: two
        row groups per chunk, two chunks per range, so one region is eight
        row groups."""
        return cls(geom, chunk_row_groups=2, chunks_per_range=2)

    # ------------------------------------------------------------------
    # Derived shape
    # ------------------------------------------------------------------

    @property
    def chunk_bytes(self) -> int:
        return self.chunk_row_groups * self.geom.row_group_bytes

    @property
    def region_row_groups(self) -> int:
        """Row groups per mapping region (between 'jumps')."""
        return 2 * self.chunks_per_range * self.chunk_row_groups

    @property
    def region_bytes(self) -> int:
        return self.region_row_groups * self.geom.row_group_bytes

    def socket_base(self, socket: int) -> int:
        self.geom.check_socket(socket)
        return self._socket_bases[socket]

    def _check_hpa(self, hpa: int) -> None:
        if not 0 <= hpa < self.geom.total_bytes:
            raise MappingError(
                f"HPA {hpa:#x} outside installed memory [0, {self.geom.total_bytes:#x})"
            )

    # ------------------------------------------------------------------
    # Chunk permutation (physical chunk index <-> row-group chunk index)
    # ------------------------------------------------------------------

    def _phys_chunk_to_rg_chunk(self, phys_chunk: int) -> int:
        """Within one region: range A's k-th chunk lands on row-group
        chunk 2k; range B's k-th chunk on 2k+1 (paper §4.2)."""
        if phys_chunk < self.chunks_per_range:  # range A
            return 2 * phys_chunk
        return 2 * (phys_chunk - self.chunks_per_range) + 1  # range B

    def _rg_chunk_to_phys_chunk(self, rg_chunk: int) -> int:
        if rg_chunk % 2 == 0:
            return rg_chunk // 2
        return self.chunks_per_range + (rg_chunk - 1) // 2

    # ------------------------------------------------------------------
    # Decode / encode
    # ------------------------------------------------------------------

    def decode(self, hpa: int) -> MediaAddress:
        """Translate a host physical address to its media address."""
        socket, socket_bank, _channel, row, col = self._decode_flat(hpa)
        return MediaAddress.from_socket_bank(self.geom, socket, socket_bank, row, col)

    def _decode_flat(self, hpa: int) -> tuple[int, int, int, int, int]:
        """The decode arithmetic: ``(socket, socket_bank, channel, row,
        col)`` without building a :class:`MediaAddress`.  Exposed
        LRU-cached as :meth:`decode_flat`, wrapped by :meth:`decode`, and
        vectorized (same columns, same order) by
        :meth:`decode_media_batch`."""
        if not 0 <= hpa < self._c_total_bytes:
            raise MappingError(
                f"HPA {hpa:#x} outside installed memory [0, {self._c_total_bytes:#x})"
            )
        socket, off = divmod(hpa, self._c_socket_bytes)
        region, roff = divmod(off, self._c_region_bytes)
        phys_chunk, coff = divmod(roff, self._c_chunk_bytes)
        rg_in_chunk, within = divmod(coff, self._c_rg_bytes)
        row = (
            region * self._c_region_rgs
            + self._phys2rg[phys_chunk] * self.chunk_row_groups
            + rg_in_chunk
        )
        line, line_off = divmod(within, CACHE_LINE)
        bank_stride, socket_bank = divmod(line, self._c_banks_per_socket)
        return (
            socket,
            socket_bank,
            socket_bank // self._c_banks_per_channel,
            row,
            bank_stride * CACHE_LINE + line_off,
        )

    def _np_phys2rg_table(self):
        """Chunk-permutation LUT as an int64 ndarray (built on first use)."""
        tab = getattr(self, "_np_phys2rg_cached", None)
        if tab is None:
            import numpy as np

            tab = np.asarray(self._phys2rg, dtype=np.int64)
            object.__setattr__(self, "_np_phys2rg_cached", tab)
        return tab

    def decode_media_batch(self, hpas):
        """Vectorized :meth:`decode_flat` over an array of HPAs.

        Returns ``(socket, socket_bank, channel, row, col)`` int64
        ndarrays that agree element-wise with :meth:`decode_flat` (the
        mapping property tests enforce this).  Raises
        :class:`MappingError` on any out-of-range address.
        """
        import numpy as np

        phys2rg = self._np_phys2rg_table()
        arr = np.asarray(hpas, dtype=np.int64)
        if arr.size:
            lo, hi = int(arr.min()), int(arr.max())
            if lo < 0 or hi >= self._c_total_bytes:
                self._check_hpa(lo if lo < 0 else hi)
        # All the divisors here are powers of two (byte sizes and bank
        # counts); shift/mask is several times faster than int64 divmod
        # on large arrays and identical for the non-negative operands
        # validated above.
        def div_mod(a, d):
            if d & (d - 1) == 0:
                return a >> (d.bit_length() - 1), a & (d - 1)
            return np.divmod(a, d)

        socket, off = div_mod(arr, self._c_socket_bytes)
        region, roff = div_mod(off, self._c_region_bytes)
        phys_chunk, coff = div_mod(roff, self._c_chunk_bytes)
        rg_in_chunk, within = div_mod(coff, self._c_rg_bytes)
        row = (
            region * self._c_region_rgs
            + phys2rg[phys_chunk] * self.chunk_row_groups
            + rg_in_chunk
        )
        line, line_off = div_mod(within, CACHE_LINE)
        bank_stride, socket_bank = div_mod(line, self._c_banks_per_socket)
        return (
            socket,
            socket_bank,
            socket_bank // self._c_banks_per_channel,
            row,
            bank_stride * CACHE_LINE + line_off,
        )

    def encode(self, media: MediaAddress) -> int:
        """Exact inverse of :meth:`decode`."""
        g = self.geom
        media.validate(g)
        region, row_in_region = divmod(media.row, self.region_row_groups)
        rg_chunk, rg_in_chunk = divmod(row_in_region, self.chunk_row_groups)
        phys_chunk = self._rg_chunk_to_phys_chunk(rg_chunk)
        col_line, line_off = divmod(media.col, CACHE_LINE)
        line = col_line * g.banks_per_socket + media.socket_bank_index(g)
        within = line * CACHE_LINE + line_off
        return (
            self.socket_base(media.socket)
            + region * self.region_bytes
            + phys_chunk * self.chunk_bytes
            + rg_in_chunk * g.row_group_bytes
            + within
        )

    # ------------------------------------------------------------------
    # Subarray-group queries (used by Siloz at boot, §5.3)
    # ------------------------------------------------------------------

    def subarray_group_of_hpa(self, hpa: int) -> tuple[int, int]:
        """(socket, group index) containing *hpa*.

        The row-group index equals the bank-local row number, so the
        group is simply row // rows_per_subarray.
        """
        socket, _bank, _channel, row, _col = self.decode_flat(hpa)
        return socket, row // self.geom.rows_per_subarray

    def row_group_ranges(self, socket: int, row: int) -> list[AddressRange]:
        """HPA range(s) whose bytes live in row *row* of every bank.

        A single row group is always physically contiguous (it sits
        inside one chunk), so the list has exactly one element; the list
        type keeps the signature uniform with
        :meth:`subarray_group_ranges`.
        """
        g = self.geom
        g.check_socket(socket)
        g.check_row(row)
        region, row_in_region = divmod(row, self.region_row_groups)
        rg_chunk, rg_in_chunk = divmod(row_in_region, self.chunk_row_groups)
        phys_chunk = self._rg_chunk_to_phys_chunk(rg_chunk)
        start = (
            self.socket_base(socket)
            + region * self.region_bytes
            + phys_chunk * self.chunk_bytes
            + rg_in_chunk * g.row_group_bytes
        )
        return [AddressRange(start, start + g.row_group_bytes)]

    def subarray_group_ranges(self, socket: int, group: int) -> list[AddressRange]:
        """All HPA ranges backing subarray group *group* of *socket*,
        coalesced.  This is the boot-time computation Siloz caches."""
        g = self.geom
        if not 0 <= group < g.groups_per_socket:
            raise MappingError(
                f"subarray group {group} out of range [0, {g.groups_per_socket})"
            )
        first_row = group * g.rows_per_subarray
        rows = range(first_row, first_row + g.rows_per_subarray)
        if g.rows_per_subarray % self.chunk_row_groups == 0:
            # Whole chunks: walk per-chunk instead of per-row for speed.
            ranges = []
            for row in rows[:: self.chunk_row_groups]:
                (r,) = self.row_group_ranges(socket, row)
                ranges.append(AddressRange(r.start, r.start + self.chunk_bytes))
        else:
            ranges = [r for row in rows for r in self.row_group_ranges(socket, row)]
        return merge_ranges(ranges)

    def groups_touched_by_range(self, start: int, size: int) -> set[tuple[int, int]]:
        """Set of (socket, group) touched by HPA range [start, start+size).

        Walks chunk- (not byte-) granular because group membership is
        constant within a chunk's row groups only up to subarray-group
        boundaries; sampling at every row-group boundary is sufficient
        because group membership cannot change mid row group.
        """
        if size <= 0:
            raise MappingError(f"range size must be positive, got {size}")
        g = self.geom
        groups: set[tuple[int, int]] = set()
        step = g.row_group_bytes
        hpa = start - (start % step)
        while hpa < start + size:
            probe = max(hpa, start)
            groups.add(self.subarray_group_of_hpa(probe))
            hpa += step
        return groups

    def page_is_isolated(self, page_start: int, page_size: int) -> bool:
        """True when the whole page maps into a single subarray group —
        the precondition for provisioning it to a VM (§4.2)."""
        return len(self.groups_touched_by_range(page_start, page_size)) == 1

    def fraction_of_pages_isolated(self, page_size: int, socket: int = 0) -> float:
        """Fraction of aligned *page_size* pages in *socket* that map to a
        single subarray group.  Reproduces §4.2's observations: 1.0 for
        2 MiB / 4 KiB pages, >= 1/3 for 1 GiB pages grouped into 3 GiB
        sets.
        """
        g = self.geom
        base = self.socket_base(socket)
        total = g.socket_bytes // page_size
        if total == 0:
            raise MappingError(
                f"page size {page_size} exceeds socket capacity {g.socket_bytes}"
            )
        isolated = sum(
            1
            for i in range(total)
            if self.page_is_isolated(base + i * page_size, page_size)
        )
        return isolated / total

    # ------------------------------------------------------------------
    # Structural self-checks
    # ------------------------------------------------------------------

    def verify_invertible(self, stride: int = CACHE_LINE) -> None:
        """Round-trip every *stride*-th address; raises on any mismatch.

        Cheap for the test geometry; paper-scale callers should sample.
        """
        for hpa in range(0, self.geom.total_bytes, stride):
            back = self.encode(self.decode(hpa))
            if back != hpa:
                raise MappingError(f"decode/encode mismatch: {hpa:#x} -> {back:#x}")
