"""IOMMU and passthrough-device DMA (paper §5.1, SR-IOV support).

The Siloz prototype uses paravirtual IO (virtio), where the host
mediates every DMA.  The paper sketches what *secure passthrough*
(SR-IOV) would require: (1) the virtual function's IOMMU must restrict
the guest's DMAs to its subarray groups' address ranges, and (2) the
IOMMU page tables must be protected like EPT pages.  This module
implements that sketch:

- :class:`IommuDomain` — a per-device DMA address space.  It *is* an
  :class:`~repro.ept.table.ExtendedPageTable` over the host DRAM (the
  repo's one radix table class, also how Linux's VT-d code shares
  page-table formats), so its table pages can be guard-protected or
  integrity-checked exactly like EPTs;
- :class:`PassthroughDevice` — a device model that performs DMA reads/
  writes and *hammering DMA* (a NIC ring that re-reads one buffer at
  DRAM rates, the GuardION-style attack vector), all through its domain.

The invariant the tests assert: a passthrough device can only ever
touch — and therefore only ever hammer — host memory inside the ranges
its domain maps, which Siloz constrains to the VM's own groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.module import SimulatedDram
from repro.ept.table import ExtendedPageTable
from repro.errors import EptViolation, HvError


class IommuFault(HvError):
    """Device DMA to an unmapped IOVA (blocked by the IOMMU)."""


@dataclass
class DmaStats:
    reads: int = 0
    writes: int = 0
    faults: int = 0
    hammer_activations: int = 0


class IommuDomain(ExtendedPageTable):
    """One device's DMA address space (IOVA -> HPA).

    Table pages come from ``alloc_table_page`` — Siloz passes its
    GFP_EPT-style allocator so IOMMU tables share the guard-protected
    row group (§5.1's requirement (2)).  ``remap_range`` lets the IOMMU
    follow live page migration just like the EPT, or the device would
    keep DMAing into the offlined frames."""

    def translate(self, iova: int) -> int:
        """IOVA -> HPA; raises IommuFault on unmapped device addresses."""
        try:
            return super().translate(iova)
        except EptViolation as exc:
            raise IommuFault(f"DMA fault: {exc}") from exc


@dataclass
class PassthroughDevice:
    """An SR-IOV virtual function assigned to one VM."""

    name: str
    domain: IommuDomain
    dram: SimulatedDram
    stats: DmaStats = field(default_factory=DmaStats)

    def dma_read(self, iova: int, length: int) -> bytes:
        hpa = self.domain.translate(iova)
        self.stats.reads += 1
        return self.dram.read(hpa, length)

    def dma_write(self, iova: int, data: bytes) -> None:
        hpa = self.domain.translate(iova)
        self.stats.writes += 1
        self.dram.write(hpa, data)

    def dma_hammer(self, iova: int, activations: int):
        """A malicious/misprogrammed device re-reading one descriptor at
        DRAM rates — DMA-based Rowhammer.  Returns induced flips.

        Because every access goes through the IOMMU, the blast radius is
        bounded by what the domain maps."""
        hpa = self.domain.translate(iova)
        socket, bank, _channel, row, _col = self.dram.mapping.decode_flat(hpa)
        flips = self.dram.activate_batch(socket, bank, [row] * activations)
        self.stats.hammer_activations += activations
        return flips
