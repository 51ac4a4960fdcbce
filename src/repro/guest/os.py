"""A tiny guest OS: frame allocation and processes (paper §2.1, §9).

Enough of an OS to host multiple isolated-from-each-other-in-theory
processes inside one VM: a guest-physical frame allocator over the RAM
region and per-process page tables (each an
:class:`~repro.ept.table.ExtendedPageTable` over the VM, so its nodes
are guest frames in the VM's own groups: a flip in them is an intra-VM
problem, not an escape).  Process reads/writes/hammers go
GVA -> GPA -> HPA -> simulated DRAM, making the intra-VM co-location
trade-off of §9 directly observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ept.table import ExtendedPageTable, weak_table_page_source
from repro.errors import HvError, OutOfMemoryError
from repro.hv.vm import VirtualMachine
from repro.units import PAGE_4K

#: GPA range reserved for the guest kernel itself (frame allocator
#: metadata, initial stacks, ...); user frames start above it.
KERNEL_RESERVED = 64 * 1024


@dataclass
class GuestProcess:
    """One process: a name, its VM, a page table (GVA -> GPA, nodes in
    guest RAM), and its mapped extent."""

    name: str
    vm: VirtualMachine
    pagetable: ExtendedPageTable
    heap_top: int = 0
    frames: list[int] = field(default_factory=list)

    def read(self, gva: int, length: int) -> bytes:
        return self.vm.read(self.pagetable.translate(gva), length)

    def write(self, gva: int, data: bytes) -> None:
        self.vm.write(self.pagetable.translate(gva), data)

    def hammer(self, gva: int, activations: int):
        """Hammer through the process's own virtual mapping — what a
        malicious userspace program inside the guest can do."""
        return self.vm.hammer(self.pagetable.translate(gva), activations)

    def hpa_of(self, gva: int) -> int:
        """The full §2.1 chain: GVA -> GPA (guest table) -> HPA (EPT)."""
        return self.vm.translate(self.pagetable.translate(gva))


class GuestOS:
    """The in-VM kernel: owns guest-physical frames, spawns processes."""

    def __init__(self, vm: VirtualMachine):
        self.vm = vm
        ram = next(r for r in vm.regions if r.name == "ram")
        self._next_frame = KERNEL_RESERVED
        self._ram_end = ram.size
        self._free: list[int] = []
        self.processes: dict[str, GuestProcess] = {}

    # ------------------------------------------------------------------
    # Frame allocator (guest-physical)
    # ------------------------------------------------------------------

    def alloc_frame(self) -> int:
        """Hand out one free guest-physical 4 KiB frame."""
        if self._free:
            return self._free.pop()
        if self._next_frame + PAGE_4K > self._ram_end:
            raise OutOfMemoryError("guest RAM exhausted")
        frame = self._next_frame
        self._next_frame += PAGE_4K
        return frame

    def free_frame(self, gpa: int) -> None:
        if gpa % PAGE_4K or not KERNEL_RESERVED <= gpa < self._ram_end:
            raise HvError(f"bad guest frame {gpa:#x}")
        self._free.append(gpa)

    @property
    def free_bytes(self) -> int:
        return (self._ram_end - self._next_frame) + len(self._free) * PAGE_4K

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------

    def spawn(self, name: str, *, heap_pages: int = 8, base_gva: int = 0x400000) -> GuestProcess:
        """Create a process with *heap_pages* of anonymous memory mapped
        at *base_gva*."""
        if name in self.processes:
            raise HvError(f"process {name!r} already exists")
        if heap_pages <= 0:
            raise HvError("heap_pages must be positive")
        # The OS owns its processes, so their tables hold it weakly.
        pagetable = ExtendedPageTable(
            self.vm,
            weak_table_page_source(
                self, lambda guest: guest.alloc_frame(),
                "no guest frame: the guest OS is gone",
            ),
        )
        process = GuestProcess(
            name=name, vm=self.vm, pagetable=pagetable, heap_top=base_gva
        )
        for i in range(heap_pages):
            frame = self.alloc_frame()
            process.frames.append(frame)
            pagetable.map(base_gva + i * PAGE_4K, frame, PAGE_4K)
        process.heap_top = base_gva + heap_pages * PAGE_4K
        self.processes[name] = process
        return process

    def kill(self, name: str) -> None:
        process = self.processes.pop(name, None)
        if process is None:
            raise HvError(f"no such process {name!r}")
        for frame in process.frames + process.pagetable.table_pages:
            self.free_frame(frame)
