"""Server DRAM geometry (paper §2.3, Table 2).

A geometry pins down the hierarchy *socket -> channel -> DIMM -> rank ->
bank -> subarray -> row* and all the derived quantities that the rest of
the stack needs: bank capacity, rows per bank, subarray-group size, and
so on.

The paper's evaluation server (Table 2) is a dual-socket Intel Xeon Gold
6230 with, per socket, 192 GiB of DDR4 as six 32 GiB 2Rx4 DIMMs: 6
channels x 2 ranks x 16 banks = 192 banks per socket, 1 GiB banks, 8 KiB
rows, 1024-row subarrays.  That configuration is
:meth:`DRAMGeometry.paper_default`.  Tests mostly use
:meth:`DRAMGeometry.small` so that whole-module simulations stay fast.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

from repro.errors import GeometryError
from repro.units import KiB, fmt_bytes, is_power_of_two


@dataclass(frozen=True)
class DRAMGeometry:
    """Immutable description of a server's DRAM layout.

    Parameters mirror what BIOS/SPD reports to system software, plus the
    subarray size, which DDR4 does not report: Siloz receives it as a boot
    parameter (paper §5.3) obtained from the vendor or inferred via mFIT.
    """

    sockets: int = 2
    channels_per_socket: int = 6
    dimms_per_channel: int = 1
    ranks_per_dimm: int = 2
    banks_per_rank: int = 16
    row_bytes: int = 8 * KiB
    rows_per_bank: int = 131072  # 1 GiB bank / 8 KiB rows
    rows_per_subarray: int = 1024

    def __post_init__(self) -> None:
        for name in (
            "sockets",
            "channels_per_socket",
            "dimms_per_channel",
            "ranks_per_dimm",
            "banks_per_rank",
            "row_bytes",
            "rows_per_bank",
            "rows_per_subarray",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise GeometryError(f"{name} must be a positive int, got {value!r}")
        if self.rows_per_bank % self.rows_per_subarray != 0:
            raise GeometryError(
                f"rows_per_bank ({self.rows_per_bank}) must be a multiple of "
                f"rows_per_subarray ({self.rows_per_subarray})"
            )
        if not is_power_of_two(self.row_bytes):
            raise GeometryError(f"row_bytes must be a power of two, got {self.row_bytes}")

    # ------------------------------------------------------------------
    # Canonical configurations
    # ------------------------------------------------------------------

    @classmethod
    def paper_default(cls) -> "DRAMGeometry":
        """The evaluation server from Table 2 (192 banks/socket, 1.5 GiB
        subarray groups)."""
        return cls()

    @classmethod
    def small(
        cls,
        *,
        sockets: int = 1,
        banks_per_rank: int = 4,
        channels_per_socket: int = 2,
        ranks_per_dimm: int = 1,
        rows_per_bank: int = 64,
        rows_per_subarray: int = 8,
        row_bytes: int = 8 * KiB,
    ) -> "DRAMGeometry":
        """A tiny geometry for tests: 8 banks/socket, 64 rows/bank.

        Socket capacity is 8 banks * 64 rows * 8 KiB = 4 MiB, small enough
        to simulate bit-for-bit, while still having multiple subarrays per
        bank and multiple banks per socket so every isolation property is
        exercised.
        """
        return cls(
            sockets=sockets,
            channels_per_socket=channels_per_socket,
            dimms_per_channel=1,
            ranks_per_dimm=ranks_per_dimm,
            banks_per_rank=banks_per_rank,
            row_bytes=row_bytes,
            rows_per_bank=rows_per_bank,
            rows_per_subarray=rows_per_subarray,
        )

    @classmethod
    def medium(cls, *, sockets: int = 2, rows_per_subarray: int = 128) -> "DRAMGeometry":
        """A scaled-down server for performance experiments: 32 banks and
        256 MiB per socket, 1024 rows per bank.

        The perf-relevant shape (many banks, deep rows, multi-chunk
        mapping regions) matches the paper server; only capacity is
        scaled, which the timing model never depends on.  128-row
        subarrays are the scale analogue of the paper's 1024 (same 1/8
        rows-per-bank ratio); 64 and 256 play the roles of 512 and 2048
        in the §7.4 sensitivity sweep.
        """
        return cls(
            sockets=sockets,
            channels_per_socket=4,
            dimms_per_channel=1,
            ranks_per_dimm=2,
            banks_per_rank=4,
            row_bytes=8 * KiB,
            rows_per_bank=1024,
            rows_per_subarray=rows_per_subarray,
        )

    def with_subarray_rows(self, rows_per_subarray: int) -> "DRAMGeometry":
        """The same hardware re-described with a different presumed
        subarray size (paper §7.4's Siloz-512 / Siloz-2048 variants)."""
        return replace(self, rows_per_subarray=rows_per_subarray)

    def with_sub_numa_clustering(self, clusters: int = 2) -> "DRAMGeometry":
        """The same hardware under sub-NUMA clustering (paper §8.1).

        SNC splits each socket into *clusters* NUMA domains, each
        interleaving over 1/clusters of the channels — so a page touches
        proportionally fewer banks and the subarray-group size shrinks
        by the same factor (1.5 GiB -> 768 MiB at SNC-2).  Modelled as
        more, narrower 'sockets', which is exactly how the OS sees it.
        """
        if clusters <= 0 or self.channels_per_socket % clusters != 0:
            raise GeometryError(
                f"cannot split {self.channels_per_socket} channels into "
                f"{clusters} clusters"
            )
        return replace(
            self,
            sockets=self.sockets * clusters,
            channels_per_socket=self.channels_per_socket // clusters,
        )

    @classmethod
    def ddr5_server(cls, *, sockets: int = 2) -> "DRAMGeometry":
        """A DDR5-generation server (paper §8.2): 32 banks per rank
        (vs DDR4's 16) doubles banks/socket to 384, so subarray groups
        grow to 3 GiB at 1024-row subarrays — coarser management, same
        isolation math (and no mirroring/inversion to undo, see
        :class:`repro.dram.transforms.TransformConfig` ``ddr5``)."""
        return cls(
            sockets=sockets,
            channels_per_socket=6,
            dimms_per_channel=1,
            ranks_per_dimm=2,
            banks_per_rank=32,
            row_bytes=8 * KiB,
            rows_per_bank=65536,  # 512 MiB banks (denser, narrower banks)
            rows_per_subarray=1024,
        )

    @classmethod
    def hbm2_stack(cls, *, sockets: int = 1) -> "DRAMGeometry":
        """An HBM2-class device (paper §8.2): many narrow channels with
        high bank counts; subarray groups follow the same algebra."""
        return cls(
            sockets=sockets,
            channels_per_socket=8,
            dimms_per_channel=1,
            ranks_per_dimm=1,
            banks_per_rank=16,
            row_bytes=2 * KiB,
            rows_per_bank=16384,
            rows_per_subarray=1024,
        )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @functools.cached_property
    def ranks_per_channel(self) -> int:
        return self.dimms_per_channel * self.ranks_per_dimm

    @functools.cached_property
    def banks_per_channel(self) -> int:
        return self.ranks_per_channel * self.banks_per_rank

    @functools.cached_property
    def banks_per_socket(self) -> int:
        return self.channels_per_socket * self.banks_per_channel

    @functools.cached_property
    def bank_bytes(self) -> int:
        return self.rows_per_bank * self.row_bytes

    @functools.cached_property
    def socket_bytes(self) -> int:
        return self.banks_per_socket * self.bank_bytes

    @functools.cached_property
    def total_bytes(self) -> int:
        return self.sockets * self.socket_bytes

    @functools.cached_property
    def dimm_bytes(self) -> int:
        return self.ranks_per_dimm * self.banks_per_rank * self.bank_bytes

    @functools.cached_property
    def subarrays_per_bank(self) -> int:
        return self.rows_per_bank // self.rows_per_subarray

    @functools.cached_property
    def row_group_bytes(self) -> int:
        """One row from every bank in a socket (paper Fig. 2)."""
        return self.banks_per_socket * self.row_bytes

    @functools.cached_property
    def subarray_group_bytes(self) -> int:
        """Size of one subarray group: one subarray per bank per socket
        (paper §4.1: 192 * 1024 * 8 KiB = 1.5 GiB on the default)."""
        return self.banks_per_socket * self.rows_per_subarray * self.row_bytes

    @functools.cached_property
    def groups_per_socket(self) -> int:
        return self.subarrays_per_bank

    @functools.cached_property
    def total_groups(self) -> int:
        return self.sockets * self.groups_per_socket

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def subarray_of_row(self, row: int) -> int:
        """Subarray index within a bank for a bank-local *row*."""
        self.check_row(row)
        return row // self.rows_per_subarray

    def subarray_row_range(self, subarray: int) -> range:
        """Bank-local rows belonging to *subarray*."""
        if not 0 <= subarray < self.subarrays_per_bank:
            raise GeometryError(
                f"subarray {subarray} out of range [0, {self.subarrays_per_bank})"
            )
        start = subarray * self.rows_per_subarray
        return range(start, start + self.rows_per_subarray)

    def check_row(self, row: int) -> None:
        if not 0 <= row < self.rows_per_bank:
            raise GeometryError(f"row {row} out of range [0, {self.rows_per_bank})")

    def check_socket(self, socket: int) -> None:
        if not 0 <= socket < self.sockets:
            raise GeometryError(f"socket {socket} out of range [0, {self.sockets})")

    def same_subarray(self, row_a: int, row_b: int) -> bool:
        """True when two bank-local rows share a subarray — the necessary
        condition for one to disturb the other (paper §2.5)."""
        return self.subarray_of_row(row_a) == self.subarray_of_row(row_b)

    def describe(self) -> str:
        """Multi-line human-readable summary (used by bench headers to
        reproduce the spirit of Table 2)."""
        return (
            f"{self.sockets} socket(s), {self.channels_per_socket} ch/socket, "
            f"{self.dimms_per_channel} DIMM/ch, {self.ranks_per_dimm} ranks/DIMM, "
            f"{self.banks_per_rank} banks/rank\n"
            f"  banks/socket={self.banks_per_socket}, bank={fmt_bytes(self.bank_bytes)}, "
            f"row={fmt_bytes(self.row_bytes)}, rows/bank={self.rows_per_bank}\n"
            f"  subarray={self.rows_per_subarray} rows -> "
            f"{self.subarrays_per_bank} subarrays/bank, "
            f"subarray group={fmt_bytes(self.subarray_group_bytes)} "
            f"({self.groups_per_socket} groups/socket)\n"
            f"  capacity: {fmt_bytes(self.socket_bytes)}/socket, "
            f"{fmt_bytes(self.total_bytes)} total"
        )
