"""Rival hypervisors for the bake-off: shared-pool, guard-stripe, CATT.

Three placement policies that bracket Siloz's design point:

* :class:`SharedPoolHypervisor` — one big guest pool per socket
  (group 0 stays host-reserved so host/EPT state is off the guest
  floor).  No placement isolation at all: the "none" baseline every
  other mitigation's overhead is measured against, and the substrate
  PARA-style refresh runs on.
* :class:`GuardStripeHypervisor` — the shared pool plus periodic
  offlined guard rows (every ``stripe_rows`` rows).  Guards absorb
  distance-1 disturbance at the stripe edge but tenants still share
  stripes, and a thin stripe leaks distance-2 pressure straight across
  a single guard row.
* :class:`CattHypervisor` — CATT-style physical partitioning (Brasser
  et al., USENIX Security '17): the guest area is cut into fixed
  per-socket partitions, each tenant gets whole partitions exclusively,
  and each partition ends in offlined guard rows.  Partition edges are
  *row*-aligned, not subarray-aligned — the gap between CATT and Siloz
  that the attack matrix demonstrates.
"""

from __future__ import annotations

from repro.dram.mapping import AddressRange, merge_ranges
from repro.errors import MitigationError, PlacementError
from repro.hv.hypervisor import Hypervisor, VmSpec, admission_bytes
from repro.hv.machine import Machine
from repro.mm.numa import NodeKind, NumaNode
from repro.mm.offline import OfflineReason
from repro.units import PAGE_2M, PAGE_4K


def _infer_backing(geom) -> int:
    """Same heuristic as ``SilozHypervisor.boot``: page-granular backing
    on small machines so multi-MiB machines stay schedulable."""
    return PAGE_2M if geom.subarray_group_bytes >= 16 * PAGE_2M else 16 * PAGE_4K


class SharedPoolHypervisor(Hypervisor):
    """Per-socket shared guest pool; no placement isolation."""

    def _build_topology(self) -> None:
        geom = self.machine.geom
        mapping = self.machine.mapping
        for socket in range(geom.sockets):
            self.topology.add(
                NumaNode(
                    node_id=socket,
                    kind=NodeKind.HOST_RESERVED,
                    physical_node=socket,
                    ranges=mapping.subarray_group_ranges(socket, 0),
                    cpus=self.machine.socket_cores(socket),
                    subarray_groups=(0,),
                )
            )
        for socket in range(geom.sockets):
            ranges = [
                r
                for g in range(1, geom.groups_per_socket)
                for r in mapping.subarray_group_ranges(socket, g)
            ]
            self.topology.add(
                NumaNode(
                    node_id=geom.sockets + socket,
                    kind=NodeKind.GUEST_RESERVED,
                    physical_node=socket,
                    ranges=merge_ranges(ranges),
                    subarray_groups=tuple(range(1, geom.groups_per_socket)),
                )
            )

    def _nodes_unavailable_for_placement(self) -> set[int]:
        """Shared pool: tenants co-habit nodes, nothing is withheld."""
        return set()

    def _place_vm(self, spec: VmSpec) -> tuple[tuple[int, ...], frozenset]:
        """First-fit over the shared pools, preferred socket first.

        ``reserved_groups`` is empty: nothing is guaranteed to the
        tenant (the point of the "none" baseline)."""
        needed = admission_bytes(spec, self.backing_page_bytes)
        pools = sorted(
            self.topology.nodes_of_kind(NodeKind.GUEST_RESERVED),
            key=lambda n: (n.physical_node != spec.socket, n.node_id),
        )
        chosen: list[int] = []
        total = 0
        for node in pools:
            if node.free_bytes <= 0:
                continue
            chosen.append(node.node_id)
            total += node.free_bytes
            if total >= needed:
                break
        if total < needed:
            per_node = max(
                (n.total_bytes for n in pools),
                default=self.machine.geom.subarray_group_bytes,
            )
            raise PlacementError(
                f"shared guest pool cannot back {spec.memory_bytes:#x} bytes "
                f"for VM {spec.name!r}: {total:#x} bytes free",
                requested_groups=-(-needed // per_node),
                available_groups=len(chosen),
            )
        return tuple(chosen), frozenset()

    def _alloc_ept_page(self, socket: int) -> int:
        """EPT pages come from the host-reserved pool (kmalloc-ish but
        kept off tenant rows so the guest pool stays whole)."""
        return self.topology.alloc_on_node(socket, PAGE_4K)

    @classmethod
    def boot(cls, machine: Machine, **kwargs) -> "SharedPoolHypervisor":
        kwargs.setdefault("backing_page_bytes", _infer_backing(machine.geom))
        return cls(machine, **kwargs)


class GuardStripeHypervisor(SharedPoolHypervisor):
    """Shared pool plus periodic offlined guard rows (guards only)."""

    def __init__(
        self,
        machine: Machine,
        *,
        stripe_rows: int = 32,
        guard_rows: int = 1,
        **kwargs,
    ):
        if guard_rows < 1:
            raise MitigationError("guard_rows must be at least 1")
        if stripe_rows <= guard_rows:
            raise MitigationError(
                f"stripe_rows ({stripe_rows}) must exceed guard_rows "
                f"({guard_rows})"
            )
        # _build_topology (called by the base initializer) needs these.
        self.stripe_rows = stripe_rows
        self.guard_rows = guard_rows
        super().__init__(machine, **kwargs)

    def _build_topology(self) -> None:
        super()._build_topology()
        geom = self.machine.geom
        mapping = self.machine.mapping
        first_guest_row = geom.rows_per_subarray  # group 0 is the host's
        for socket in range(geom.sockets):
            node = self.topology.node(geom.sockets + socket)
            for row in range(first_guest_row, geom.rows_per_bank):
                offset = (row - first_guest_row) % self.stripe_rows
                if offset < self.stripe_rows - self.guard_rows:
                    continue
                for rg in mapping.row_group_ranges(socket, row):
                    self.offline.offline(node, rg, OfflineReason.GUARD_ROW)


class CattHypervisor(Hypervisor):
    """CATT-style fixed physical partitions with trailing guard rows."""

    def __init__(
        self,
        machine: Machine,
        *,
        partitions_per_socket: int = 8,
        guard_rows: int = 1,
        **kwargs,
    ):
        geom = machine.geom
        guest_rows = geom.rows_per_bank - geom.rows_per_subarray
        if partitions_per_socket < 1:
            raise MitigationError("partitions_per_socket must be at least 1")
        if guest_rows // partitions_per_socket <= guard_rows:
            raise MitigationError(
                f"{partitions_per_socket} partitions over {guest_rows} guest "
                f"rows leave no allocatable rows after {guard_rows} guard "
                f"row(s) each"
            )
        self.partitions_per_socket = partitions_per_socket
        self.guard_rows = guard_rows
        super().__init__(machine, **kwargs)

    def _build_topology(self) -> None:
        geom = self.machine.geom
        mapping = self.machine.mapping
        for socket in range(geom.sockets):
            self.topology.add(
                NumaNode(
                    node_id=socket,
                    kind=NodeKind.HOST_RESERVED,
                    physical_node=socket,
                    ranges=mapping.subarray_group_ranges(socket, 0),
                    cpus=self.machine.socket_cores(socket),
                    subarray_groups=(0,),
                )
            )
        first_guest_row = geom.rows_per_subarray
        guest_rows = geom.rows_per_bank - first_guest_row
        stride = guest_rows // self.partitions_per_socket
        next_id = geom.sockets
        for socket in range(geom.sockets):
            for p in range(self.partitions_per_socket):
                start = first_guest_row + p * stride
                end = (
                    geom.rows_per_bank
                    if p == self.partitions_per_socket - 1
                    else start + stride
                )
                ranges: list[AddressRange] = []
                for row in range(start, end):
                    ranges.extend(mapping.row_group_ranges(socket, row))
                node = NumaNode(
                    node_id=next_id,
                    kind=NodeKind.GUEST_RESERVED,
                    physical_node=socket,
                    ranges=merge_ranges(ranges),
                    # Row-aligned, not subarray-aligned: deliberately no
                    # subarray-group claim.
                    subarray_groups=(),
                )
                self.topology.add(node)
                for row in range(end - self.guard_rows, end):
                    for rg in mapping.row_group_ranges(socket, row):
                        self.offline.offline(node, rg, OfflineReason.GUARD_ROW)
                next_id += 1

    def _guest_nodes_exclusive(self) -> bool:
        return True

    def _place_vm(self, spec: VmSpec) -> tuple[tuple[int, ...], frozenset]:
        """Whole partitions, exclusively, preferred socket first."""
        needed = admission_bytes(spec, self.backing_page_bytes)
        reserved = self._nodes_unavailable_for_placement()
        free_nodes = [
            n
            for n in self.topology.nodes_of_kind(NodeKind.GUEST_RESERVED)
            if n.node_id not in reserved
        ]
        candidates = sorted(
            free_nodes,
            key=lambda n: (n.physical_node != spec.socket, n.node_id),
        )
        chosen: list[int] = []
        total = 0
        for node in candidates:
            chosen.append(node.node_id)
            total += node.free_bytes
            if total >= needed:
                break
        if total < needed:
            per_node = max(
                (n.total_bytes for n in self.topology.nodes_of_kind(NodeKind.GUEST_RESERVED)),
                default=self.machine.geom.subarray_group_bytes,
            )
            raise PlacementError(
                f"cannot reserve {spec.memory_bytes:#x} bytes of CATT "
                f"partitions for VM {spec.name!r}: {len(free_nodes)} free "
                f"partition(s) hold {total:#x} bytes",
                requested_groups=-(-needed // per_node),
                available_groups=len(free_nodes),
            )
        # Partitions are row-aligned; no subarray-group claim is made.
        return tuple(chosen), frozenset()

    def _alloc_ept_page(self, socket: int) -> int:
        return self.topology.alloc_on_node(socket, PAGE_4K)

    @classmethod
    def boot(cls, machine: Machine, **kwargs) -> "CattHypervisor":
        kwargs.setdefault("backing_page_bytes", _infer_backing(machine.geom))
        return cls(machine, **kwargs)
