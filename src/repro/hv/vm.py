"""Virtual machines (paper §2.1, §5.1, §7.1).

A :class:`VirtualMachine` owns an EPT, a set of memory regions, and the
host pages backing them.  Guest accesses translate through the EPT and
then hit the simulated DRAM — including the attack entry point
(`hammer`) that guest code drives from *inside* the VM, exactly as
Blacksmith runs inside a VM in §7.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

from repro.dram.mapping import AddressRange
from repro.ept.table import ExtendedPageTable
from repro.errors import DramError, HvError
from repro.hv.machine import Machine
from repro.hv.memory_types import MemoryRegion


class VmState(Enum):
    """VM lifecycle states (§5.3: shutdown keeps the reservation)."""
    RUNNING = "running"
    SHUTDOWN = "shutdown"


@dataclass
class VirtualMachine:
    """One guest: regions, EPT, backing memory, and placement facts."""

    name: str
    machine: Machine
    ept: ExtendedPageTable
    regions: list[MemoryRegion]
    vcpus: int
    home_socket: int
    #: Logical NUMA nodes provisioned to this VM (its cgroup's mems).
    node_ids: tuple[int, ...] = ()
    #: (socket, subarray group) pairs this VM may legitimately occupy.
    reserved_groups: frozenset = frozenset()
    #: Host ranges backing unmediated regions (guest RAM etc.), in
    #: guest-physical order: the unmediated regions consume them front
    #: to back (see :meth:`extents`).  Not necessarily sorted by HPA
    #: once live migration has moved a block.
    backing: list[AddressRange] = field(default_factory=list)
    #: Host ranges backing mediated regions (host-reserved nodes), in
    #: guest-physical order like :attr:`backing`.
    mediated_backing: list[AddressRange] = field(default_factory=list)
    state: VmState = VmState.RUNNING
    vm_exits: int = 0
    #: Passthrough devices attached to this VM (see repro.hv.iommu).
    devices: list = field(default_factory=list)

    # ------------------------------------------------------------------

    def region_at(self, gpa: int) -> MemoryRegion:
        for region in self.regions:
            if gpa in region:
                return region
        raise HvError(f"VM {self.name}: GPA {gpa:#x} not in any region")

    def _check_running(self) -> None:
        if self.state is not VmState.RUNNING:
            raise HvError(f"VM {self.name} is not running")

    def translate(self, gpa: int) -> int:
        """GPA -> HPA through this VM's EPT (reads real DRAM bits)."""
        return self.ept.translate(gpa)

    # ------------------------------------------------------------------
    # Guest data accesses
    # ------------------------------------------------------------------

    def read(self, gpa: int, length: int, *, ecc: bool = True) -> bytes:
        """Guest load.  Mediated regions cost a VM exit.

        ``ecc=False`` returns raw cell contents (what a non-ECC platform
        would see) — handy for inspecting corruption in experiments."""
        self._check_running()
        region = self.region_at(gpa)
        if not region.unmediated:
            self.vm_exits += 1
        hpa = self.translate(gpa)
        return self.machine.dram.read(hpa, length, ecc=ecc)

    def write(self, gpa: int, data: bytes) -> None:
        """Guest store.  ROM writes and mediated regions exit."""
        self._check_running()
        region = self.region_at(gpa)
        if not region.unmediated or region.kind.name.startswith("ROM"):
            self.vm_exits += 1
        hpa = self.translate(gpa)
        self.machine.dram.write(hpa, data)

    # ------------------------------------------------------------------
    # Attack entry points (the guest's view of "hammering")
    # ------------------------------------------------------------------

    def hammer(self, gpa: int, activations: int, *, open_seconds: float = 0.0):
        """Repeatedly activate the DRAM row behind *gpa*.

        Only unmediated regions can be hammered: mediated accesses take a
        VM exit each, so the host mediates (and could rate-limit) them —
        the §5.1 argument for why mediated pages may stay host-side.
        Returns the list of bit flips the hammering caused anywhere.  A
        negative or NaN *open_seconds* is refused before the translation
        touches DRAM, as :meth:`SimulatedDram.activate` refuses it.
        """
        self._check_running()
        region = self.region_at(gpa)
        if not region.unmediated:
            raise HvError(
                f"VM {self.name}: {region.name} is host-mediated; every access "
                "exits, so it cannot be hammered at DRAM rates"
            )
        if not open_seconds >= 0.0:
            raise DramError(f"open time must be non-negative, got {open_seconds}")
        dram = self.machine.dram
        socket, bank, _channel, row, _col = dram.mapping.decode_flat(self.translate(gpa))
        if open_seconds == 0.0:
            # Pure ACT storms go through the batch path (engine fast
            # path on the vectorized backend, plain loop on scalar).
            return dram.activate_batch(socket, bank, [row] * activations)
        flips = []
        for _ in range(activations):
            flips.extend(dram.activate(socket, bank, row, open_seconds=open_seconds))
        return flips

    # ------------------------------------------------------------------

    @property
    def unmediated_bytes(self) -> int:
        return sum(r.size for r in self.backing)

    def owns_hpa(self, hpa: int) -> bool:
        return any(hpa in r for r in self.backing) or any(
            hpa in r for r in self.mediated_backing
        )

    def extents(self) -> Iterator[tuple[str, int, int, int]]:
        """(region name, gpa, hpa, size) pieces of guest memory, in region
        order.  The one walk of the guest-physical layout: each region
        draws the next bytes of its mediation class's backing list, so
        the EPT, migration and the fault scenarios all agree on where a
        guest page lives — with pure arithmetic, no EPT walk."""
        pools = {
            True: [(r.start, r.size) for r in self.backing],
            False: [(r.start, r.size) for r in self.mediated_backing],
        }
        for region in self.regions:
            pool = pools[region.unmediated]
            gpa, end = region.gpa, region.end
            while gpa < end:
                if not pool:
                    raise HvError(
                        f"VM {self.name}: backing exhausted mapping {region.name}"
                    )
                start, size = pool[0]
                take = min(size, end - gpa)
                yield region.name, gpa, start, take
                gpa += take
                if take == size:
                    pool.pop(0)
                else:
                    pool[0] = (start + take, size - take)

    def replace_backing(self, old: AddressRange, new: AddressRange) -> None:
        """Swap one backing extent for another (live page migration).

        The range covering *old* is split around it and *new* takes its
        place in the same list position, so the lists stay in
        guest-physical order and :meth:`extents` still matches the EPT.
        The EPT/IOMMU retargeting happens separately — this only updates
        the bookkeeping."""
        if old.size != new.size:
            raise HvError(
                f"VM {self.name}: replacement size mismatch "
                f"({old.size:#x} != {new.size:#x})"
            )
        for attr in ("backing", "mediated_backing"):
            ranges = getattr(self, attr)
            for i, r in enumerate(ranges):
                if r.start <= old.start and old.end <= r.end:
                    pieces = [
                        AddressRange(r.start, old.start),
                        new,
                        AddressRange(old.end, r.end),
                    ]
                    kept = [p for p in pieces if p.size]
                    setattr(self, attr, ranges[:i] + kept + ranges[i + 1:])
                    return
        raise HvError(
            f"VM {self.name}: range {old} is not part of this VM's backing"
        )
