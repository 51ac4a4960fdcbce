"""Rival hypervisors for the bake-off: shared-pool, guard-stripe, CATT.

Three topologies that bracket Siloz's design point, all admitting
through the one placement rule
(:func:`~repro.hv.hypervisor.choose_nodes`):

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
from repro.errors import MitigationError
from repro.hv.hypervisor import Hypervisor
from repro.hv.machine import Machine
from repro.mm.numa import NodeKind, NumaNode
from repro.mm.offline import OfflineReason
from repro.units import PAGE_4K


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

    def _alloc_ept_page(self, socket: int) -> int:
        """EPT pages come from the host-reserved pool (kmalloc-ish but
        kept off tenant rows so the guest pool stays whole)."""
        return self.topology.alloc_on_node(socket, PAGE_4K)


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
    """CATT-style fixed physical partitions with trailing guard rows.

    Each tenant gets whole partitions exclusively; partitions are
    row-aligned, so no subarray-group claim is made."""

    exclusive_nodes = True

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

    def _alloc_ept_page(self, socket: int) -> int:
        return self.topology.alloc_on_node(socket, PAGE_4K)
