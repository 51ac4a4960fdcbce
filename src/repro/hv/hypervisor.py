"""Hypervisor base class and the baseline Linux/KVM implementation
(paper §2.1, §5; evaluated against in §7).

:class:`Hypervisor` holds everything common to the baseline and Siloz:
NUMA topology, cgroups, the offline registry, VM lifecycle, the
QEMU-ish region construction, and the one placement rule,
:func:`choose_nodes`.  Subclasses decide which nodes exist, whether a
tenant owns its nodes (:attr:`Hypervisor.exclusive_nodes`), and where
EPT pages come from.

:class:`BaselineHypervisor` is stock Linux/KVM: one node per socket,
all allocations from the socket's general pool, EPT pages kmalloc'd
anywhere.  Two VMs routinely end up adjacent in the same subarray — the
vulnerability Table 3 demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

from repro import obs
from repro.dram.mapping import AddressRange, merge_ranges
from repro.ept.table import ExtendedPageTable, weak_table_page_source
from repro.errors import HvError, OutOfMemoryError, PlacementError
from repro.hv.machine import Machine
from repro.hv.memory_types import default_layout
from repro.hv.vm import VirtualMachine, VmState
from repro.mm.cgroup import CgroupManager, Process
from repro.mm.numa import NodeKind, NumaNode, NumaTopology
from repro.mm.offline import OfflineRegistry
from repro.units import PAGE_2M, PAGE_4K


@dataclass(frozen=True)
class CapacitySnapshot:
    """Read-only capacity picture of one host (``Hypervisor.capacity()``).

    Built from counters in O(nodes): every free-byte figure is a buddy
    allocator's running count, never a walk of its free lists.  The
    fleet scheduler packs VMs against this instead of poking at live
    allocator state, and ``repro health`` can print it as a one-line
    utilization summary.  ``free_guest_node_ids`` are guest-reserved
    nodes not reserved by any VM (the only nodes a new tenant may be
    placed on — one tenant per subarray group, §5.1/§5.2);
    ``free_bytes_by_node`` covers *every* node so host/EPT headroom is
    visible too.
    """

    #: Guest-reserved node ids with no VM reservation, ascending.
    free_guest_node_ids: tuple[int, ...]
    #: node id -> free bytes (all nodes, including host/EPT-reserved).
    free_bytes_by_node: dict[int, int]
    #: Total guest-reserved nodes provisioned on the host.
    total_guest_nodes: int
    #: Bytes offlined as EPT guard rows (§5.4).
    guard_row_bytes: int
    #: Bytes offlined for any reason (guards, remediation, CE storms).
    offlined_bytes: int
    #: VMs currently holding reservations (running or shut down).
    vm_count: int
    #: The host's backing page size (the §4.2 alignment constraint).
    backing_page_bytes: int

    @property
    def free_guest_bytes(self) -> int:
        """Allocatable bytes across unreserved guest nodes."""
        return sum(self.free_bytes_by_node[n] for n in self.free_guest_node_ids)

    def to_dict(self) -> dict:
        """Plain-data wire form (the ``repro serve`` capacity op ships
        this across the socket; keys sort stably for digests)."""
        return {
            "free_guest_node_ids": list(self.free_guest_node_ids),
            "free_guest_bytes": self.free_guest_bytes,
            "free_bytes_by_node": {
                str(k): v for k, v in sorted(self.free_bytes_by_node.items())
            },
            "total_guest_nodes": self.total_guest_nodes,
            "guard_row_bytes": self.guard_row_bytes,
            "offlined_bytes": self.offlined_bytes,
            "vm_count": self.vm_count,
            "backing_page_bytes": self.backing_page_bytes,
        }


@dataclass(frozen=True)
class VmSpec:
    """What a tenant asks for."""

    name: str
    memory_bytes: int
    vcpus: int = 1
    socket: int = 0
    rom_bytes: int = 4 * PAGE_4K
    mmio_bytes: int = 4 * PAGE_4K

    def __post_init__(self) -> None:
        if self.memory_bytes <= 0:
            raise HvError("memory_bytes must be positive")
        if self.vcpus <= 0:
            raise HvError("vcpus must be positive")


def admission_bytes(spec: VmSpec, backing_page_bytes: int) -> int:
    """Bytes a placement must find for *spec* (the §5.3 admission
    check): its memory plus two backing pages of ROM-rounding slack."""
    return spec.memory_bytes + 2 * backing_page_bytes


def choose_nodes(
    nodes: list[tuple[int, int, int, int]], spec: VmSpec, backing_page_bytes: int
) -> tuple[int, ...]:
    """The one placement rule (§5.1–§5.3) every hypervisor and the
    fleet's capacity twin admit by.

    *nodes* lists every guest node as ``(node id, socket, placeable free
    bytes, total bytes)``; a node another tenant owns enters with 0
    placeable bytes.  Scan the home socket first, then by node id,
    skipping empty nodes, until the chosen nodes hold
    :func:`admission_bytes`.  On a shortfall, raise the typed capacity
    :class:`PlacementError`: how many nodes the request needs at this
    host's largest node size vs how many usable nodes there were (the
    fleet scheduler keys "host full" off these fields)."""
    needed = admission_bytes(spec, backing_page_bytes)
    chosen: list[int] = []
    total = 0
    for node_id, _, free, _ in sorted(
        nodes, key=lambda n: (n[1] != spec.socket, n[0])
    ):
        if free <= 0:
            continue
        chosen.append(node_id)
        total += free
        if total >= needed:
            return tuple(chosen)
    raise PlacementError(
        f"cannot place {spec.memory_bytes:#x} bytes for VM {spec.name!r}: "
        f"{len(chosen)} usable guest node(s) hold {total:#x} bytes",
        requested_groups=-(-needed // max((n[3] for n in nodes), default=needed)),
        available_groups=len(chosen),
    )


class Hypervisor:
    """Common machinery; see subclasses for topology and placement."""

    #: Whether a tenant owns the guest nodes it is placed on (one tenant
    #: per node: Siloz, CATT) or draws pages from pools it shares.
    exclusive_nodes: ClassVar[bool] = False

    def __init__(self, machine: Machine, *, backing_page_bytes: int = PAGE_2M):
        if backing_page_bytes % PAGE_4K:
            raise HvError("backing page size must be 4 KiB aligned")
        self.machine = machine
        self.backing_page_bytes = backing_page_bytes
        self.topology = NumaTopology()
        self.cgroups = CgroupManager()
        self.offline = OfflineRegistry()
        self.vms: dict[str, VirtualMachine] = {}
        self._processes: dict[str, Process] = {}
        self._ledger: dict[str, list[int]] = {}  # VM -> backing page addrs
        self._next_pid = 1000
        #: Runtime DRAM health monitor (None until enabled).
        self.health = None
        self._build_topology()
        self.cgroups.root.mems = {
            n.node_id
            for n in self.topology.nodes_of_kind(NodeKind.HOST_RESERVED)
        }

    @classmethod
    def boot(cls, machine: Machine, *args, backing_page_bytes: int | None = None,
             **kwargs) -> "Hypervisor":
        """Construct on *machine*.  Unless given, the backing page is
        2 MiB, or page-granular (64 KiB) on small machines so multi-MiB
        machines stay schedulable."""
        if backing_page_bytes is None:
            big = machine.geom.subarray_group_bytes >= 16 * PAGE_2M
            backing_page_bytes = PAGE_2M if big else 16 * PAGE_4K
        return cls(machine, *args, backing_page_bytes=backing_page_bytes, **kwargs)

    # -- subclass responsibilities -------------------------------------

    def _build_topology(self) -> None:
        raise NotImplementedError

    def _place_vm(self, spec: VmSpec) -> tuple[tuple[int, ...], frozenset]:
        """Choose (node_ids, reserved (socket, group) set) for a VM:
        :func:`choose_nodes` over the guest nodes, with the nodes other
        tenants own unplaceable.  No subarray group is claimed."""
        taken = self._nodes_unavailable_for_placement()
        nodes = [
            (n.node_id, n.physical_node,
             0 if n.node_id in taken else n.free_bytes, n.total_bytes)
            for n in self.topology.nodes_of_kind(NodeKind.GUEST_RESERVED)
        ]
        return choose_nodes(nodes, spec, self.backing_page_bytes), frozenset()

    def _alloc_ept_page(self, socket: int) -> int:
        """Allocate one 4 KiB page for an EPT (or IOMMU) table node
        homed on *socket*."""
        raise NotImplementedError

    def _table_page_source(self, socket: int) -> Callable[[], int]:
        """The table-page allocator of an EPT or IOMMU domain homed on
        *socket*: this hypervisor held weakly (it owns its VMs, their
        EPTs and devices) and the socket as a plain int.
        ``_alloc_ept_page`` is looked up per call, so subclass placement
        applies."""
        return weak_table_page_source(
            self,
            lambda hv: hv._alloc_ept_page(socket),
            f"no table page on socket {socket}: its hypervisor is gone",
        )

    # -- common lifecycle ----------------------------------------------

    def _spawn_qemu(self, spec: VmSpec) -> Process:
        self._next_pid += 1
        process = Process(
            pid=self._next_pid, name=f"qemu-{spec.name}", kvm_privileged=True
        )
        self._processes[spec.name] = process
        return process

    def _mmap(
        self,
        process: Process,
        vm_name: str,
        node_ids: tuple[int, ...],
        size: int,
        *,
        unmediated: bool,
    ) -> list[AddressRange]:
        """QEMU's mmap: UNMEDIATED requests draw from the given (guest)
        nodes after the §5.3 admission check; mediated requests go to
        host-reserved nodes.  Allocations are page-granular and recorded
        in the per-VM ledger so ``destroy_vm`` can free them exactly."""
        page = self.backing_page_bytes
        if not unmediated:
            node_ids = tuple(
                n.node_id for n in self.topology.nodes_of_kind(NodeKind.HOST_RESERVED)
            )
            page = PAGE_4K
        pages_needed = -(-size // page)
        addrs: list[int] = []
        for node_id in node_ids:
            node = self.topology.node(node_id)
            self.cgroups.check_allocation(
                process,
                node.node_id,
                node_is_guest_reserved=node.kind is NodeKind.GUEST_RESERVED,
            )
            while len(addrs) < pages_needed:
                try:
                    addrs.append(node.alloc_bytes(page))
                except OutOfMemoryError:
                    break
            if len(addrs) >= pages_needed:
                break
        if len(addrs) < pages_needed:
            for addr in addrs:
                self.topology.free_addr(addr)
            raise OutOfMemoryError(
                f"could not back {size:#x} bytes on nodes {node_ids}"
            )
        self._ledger.setdefault(vm_name, []).extend(addrs)
        return merge_ranges([AddressRange(a, a + page) for a in addrs])

    def create_vm(self, spec: VmSpec) -> VirtualMachine:
        """Boot a VM: place it, back it, build its EPT, map its regions."""
        if spec.name in self.vms:
            raise HvError(f"VM {spec.name!r} already exists")
        if spec.memory_bytes % self.backing_page_bytes:
            raise HvError(
                f"VM memory must be a multiple of the {self.backing_page_bytes:#x}-"
                "byte backing page size"
            )
        node_ids, groups = self._place_vm(spec)
        process = self._spawn_qemu(spec)
        host_mems = {
            n.node_id for n in self.topology.nodes_of_kind(NodeKind.HOST_RESERVED)
        }
        if self.exclusive_nodes:
            cgroup = self.cgroups.create(
                f"vm-{spec.name}",
                mems=host_mems - set(node_ids),
                exclusive_mems=set(node_ids),
            )
        else:
            cgroup = self.cgroups.create(
                f"vm-{spec.name}", mems=host_mems | set(node_ids)
            )
        cgroup.attach(process)

        regions = default_layout(
            spec.memory_bytes, rom_bytes=spec.rom_bytes, mmio_bytes=spec.mmio_bytes
        )
        unmediated_bytes = sum(r.size for r in regions if r.unmediated)
        mediated_bytes = sum(r.size for r in regions if not r.unmediated)
        # ROM is smaller than a huge page; round the unmediated request.
        unmediated_bytes = -(-unmediated_bytes // self.backing_page_bytes) * self.backing_page_bytes

        try:
            backing = self._mmap(
                process, spec.name, node_ids, unmediated_bytes, unmediated=True
            )
            mediated = (
                self._mmap(
                    process, spec.name, node_ids, mediated_bytes, unmediated=False
                )
                if mediated_bytes
                else []
            )
        except Exception:
            for addr in self._ledger.pop(spec.name, []):
                self.topology.free_addr(addr)
            self.cgroups.destroy(f"vm-{spec.name}")
            self._processes.pop(spec.name, None)
            raise

        ept = ExtendedPageTable(
            self.machine.dram, self._table_page_source(spec.socket)
        )
        vm = VirtualMachine(
            name=spec.name,
            machine=self.machine,
            ept=ept,
            regions=regions,
            vcpus=spec.vcpus,
            home_socket=spec.socket,
            node_ids=node_ids,
            reserved_groups=groups,
            backing=backing,
            mediated_backing=mediated,
        )
        self._map_regions(vm)
        self.vms[spec.name] = vm
        return vm

    def _map_regions(self, vm: VirtualMachine) -> None:
        for _, gpa, hpa, size in vm.extents():
            vm.ept.map(gpa, hpa, size)

    def destroy_vm(self, name: str) -> None:
        """Shut a VM down: free its backing to the owning nodes (§5.3).
        The node reservation (cgroup) survives until
        :meth:`release_reservation`."""
        vm = self.vms.get(name)
        if vm is None:
            raise HvError(f"no such VM {name!r}")
        if vm.state is VmState.SHUTDOWN:
            raise HvError(f"VM {name!r} already shut down")
        vm.state = VmState.SHUTDOWN
        for addr in self._ledger.pop(name, []):
            self.topology.free_addr(addr)
        for page in vm.ept.table_pages:
            self._free_ept_page(page)
        for device in vm.devices:
            for page in device.domain.table_pages:
                self._free_ept_page(page)
        vm.devices.clear()

    def _free_ept_page(self, addr: int) -> None:
        self.topology.free_addr(addr)

    def release_reservation(self, name: str) -> None:
        """Privileged teardown of a VM's node reservation (§5.3)."""
        if name in self.vms and self.vms[name].state is not VmState.SHUTDOWN:
            raise HvError(f"VM {name!r} still running")
        self.cgroups.destroy(f"vm-{name}")
        self.vms.pop(name, None)

    # -- passthrough IO (§5.1 SR-IOV sketch) ------------------------------

    def attach_passthrough_device(self, vm_name: str, device_name: str):
        """Assign an SR-IOV-style virtual function to a VM.

        The device's IOMMU domain maps IOVA space 1:1 with the VM's
        guest RAM and is backed by the same protected table-page
        allocator as EPTs (paper §5.1's requirements (1) and (2)): the
        device can DMA — and therefore hammer — only within the VM's own
        subarray groups.
        """
        from repro.hv.iommu import IommuDomain, PassthroughDevice

        vm = self.vm(vm_name)
        if vm.state is not VmState.RUNNING:
            raise HvError(f"VM {vm_name!r} is not running")
        domain = IommuDomain(
            self.machine.dram, self._table_page_source(vm.home_socket)
        )
        iova = 0
        for r in vm.backing:
            domain.map(iova, r.start, r.size)
            iova += r.size
        device = PassthroughDevice(
            name=device_name, domain=domain, dram=self.machine.dram
        )
        vm.devices.append(device)
        return device

    # -- runtime fault handling -------------------------------------------

    def enable_health_monitoring(self, policy=None, *, auto_remediate: bool = True):
        """Attach a :class:`~repro.hv.health.HealthMonitor` (the EDAC /
        mcelog analogue) to this hypervisor's DRAM error stream.  Idempotent
        per hypervisor: a second call returns the existing monitor."""
        if self.health is not None:
            return self.health
        from repro.hv.health import HealthMonitor

        self.health = HealthMonitor(
            self, policy=policy, auto_remediate=auto_remediate
        )
        self.health.attach()
        return self.health

    def vm_block_owner(self, addr: int) -> tuple[VirtualMachine, bool] | None:
        """Which VM's ledger holds backing page *addr*; returns
        (vm, is_mediated) or None for non-VM memory (EPT pages, free
        pool).  Live migration uses this to find whose EPT to rewrite."""
        for name, addrs in self._ledger.items():
            if addr in addrs:
                vm = self.vms.get(name)
                if vm is None:
                    return None
                mediated = any(addr in r for r in vm.mediated_backing)
                return vm, mediated
        return None

    def table_page_owner(self, addr: int) -> str | None:
        """Name of the VM whose EPT (or device IOMMU) tables include the
        page at *addr*, or None.  Table pages cannot be live-migrated in
        this model (their HPAs are interior tree pointers), so migration
        defers ranges containing them."""
        for name, vm in self.vms.items():
            if addr in vm.ept.table_pages:
                return name
            for device in vm.devices:
                if addr in device.domain.table_pages:
                    return name
        return None

    def relocate_block(
        self, vm: VirtualMachine, old: int, size: int, new: int
    ) -> None:
        """Move one backing block of *vm* from HPA *old* to *new*: EPT
        and device-IOMMU leaves are retargeted, the VM's backing ranges
        and the allocation ledger are updated.  The caller has already
        copied the data and owns freeing/retiring the old frames."""
        vm.ept.remap_range(old, size, new)
        for device in vm.devices:
            device.domain.remap_range(old, size, new)
        vm.replace_backing(
            AddressRange(old, old + size), AddressRange(new, new + size)
        )
        addrs = self._ledger.get(vm.name, [])
        try:
            addrs[addrs.index(old)] = new
        except ValueError:
            raise HvError(
                f"block {old:#x} not in {vm.name!r}'s allocation ledger"
            ) from None
        if obs.ENABLED:
            obs.emit(
                obs.RemapEvent(
                    vm=vm.name,
                    old=old,
                    new=new,
                    size=size,
                    when=self.machine.dram.clock,
                )
            )

    # -- introspection ---------------------------------------------------

    def _nodes_unavailable_for_placement(self) -> set[int]:
        """Node ids a *new* tenant may not be placed on: every node any
        VM holds on an exclusive hypervisor, none on a shared pool (its
        capacity is the pool's remaining free bytes)."""
        if not self.exclusive_nodes:
            return set()
        return {nid for vm in self.vms.values() for nid in vm.node_ids}

    def capacity(self) -> CapacitySnapshot:
        """Read-only snapshot of this host's placement capacity.

        O(nodes): each node's free bytes is its buddy allocator's
        running counter, so no free list is walked, nothing is
        allocated and DRAM is not touched.  Safe to call at any point
        in the VM lifecycle; the fleet scheduler takes one per host per
        placement decision.
        """
        from repro.mm.offline import OfflineReason

        reserved = self._nodes_unavailable_for_placement()
        nodes = self.topology.nodes
        guest = [n.node_id for n in nodes if n.kind is NodeKind.GUEST_RESERVED]
        return CapacitySnapshot(
            free_guest_node_ids=tuple(n for n in guest if n not in reserved),
            free_bytes_by_node={n.node_id: n.free_bytes for n in nodes},
            total_guest_nodes=len(guest),
            guard_row_bytes=self.offline.total_bytes(OfflineReason.GUARD_ROW),
            offlined_bytes=self.offline.total_bytes(),
            vm_count=len(self.vms),
            backing_page_bytes=self.backing_page_bytes,
        )

    def vm(self, name: str) -> VirtualMachine:
        try:
            return self.vms[name]
        except KeyError:
            raise HvError(f"no such VM {name!r}") from None

    def groups_of_vm(self, vm: VirtualMachine) -> set:
        """(socket, subarray group) pairs actually touched by the VM's
        unmediated backing."""
        groups: set = set()
        for r in vm.backing:
            groups |= self.machine.mapping.groups_touched_by_range(r.start, r.size)
        return groups


class BaselineHypervisor(Hypervisor):
    """Stock Linux/KVM: per-socket nodes, no subarray awareness."""

    def _build_topology(self) -> None:
        geom = self.machine.geom
        for socket in range(geom.sockets):
            base = self.machine.mapping.socket_base(socket)
            self.topology.add(
                NumaNode(
                    node_id=socket,
                    kind=NodeKind.HOST_RESERVED,
                    physical_node=socket,
                    ranges=[AddressRange(base, base + geom.socket_bytes)],
                    cpus=self.machine.socket_cores(socket),
                    subarray_groups=tuple(range(geom.groups_per_socket)),
                )
            )

    def _place_vm(self, spec: VmSpec) -> tuple[tuple[int, ...], frozenset]:
        """Baseline 'placement' is just the socket's node; there is no
        group reservation, so reserved_groups is empty (nothing is
        guaranteed)."""
        if spec.socket not in self.topology:
            raise PlacementError(f"no node for socket {spec.socket}")
        return (spec.socket,), frozenset()

    def _alloc_ept_page(self, socket: int) -> int:
        """kmalloc: EPT pages come from the general pool, wherever."""
        return self.topology.alloc_on_node(socket, PAGE_4K)
