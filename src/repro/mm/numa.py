"""Physical and logical NUMA nodes (paper §2.2, §5.2).

A conventional ("physical") node is a socket plus its memory pool.
Siloz adds *logical* nodes: memory-only nodes whose pool is one or more
subarray groups, each remembering its parent physical node so NUMA
locality optimisations still work.  This module implements both as one
:class:`NumaNode` type plus a :class:`NumaTopology` registry with
Linux-flavoured allocation entry points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.dram.mapping import AddressRange
from repro.errors import MmError, OutOfMemoryError
from repro.mm.buddy import BuddyAllocator


class NodeKind(Enum):
    """Reservation class of a logical node (paper §5.2)."""

    HOST_RESERVED = "host"
    GUEST_RESERVED = "guest"
    EPT_RESERVED = "ept"  # the protected EPT row-group block (§5.4)


@dataclass
class NumaNode:
    """One (logical) NUMA node.

    ``physical_node`` is the socket this node's memory lives on; host
    nodes also own that socket's cores (``cpus``), guest-reserved nodes
    are memory-only (§5.2).
    """

    node_id: int
    kind: NodeKind
    physical_node: int
    ranges: list[AddressRange]
    cpus: tuple[int, ...] = ()
    subarray_groups: tuple[int, ...] = ()
    allocator: BuddyAllocator = field(init=False)

    def __post_init__(self) -> None:
        self.allocator = BuddyAllocator(self.ranges)

    @property
    def total_bytes(self) -> int:
        return self.allocator.total_bytes

    @property
    def free_bytes(self) -> int:
        return self.allocator.free_bytes

    @property
    def is_memory_only(self) -> bool:
        return not self.cpus

    def alloc_bytes(self, size: int) -> int:
        return self.allocator.alloc_bytes(size)

    def free_addr(self, addr: int) -> None:
        self.allocator.free(addr)

    # -- runtime fault handling (soak / migrate / offline) --------------

    def quarantine_range(self, target: AddressRange) -> int:
        """Soak: stop new allocations landing in *target* (free pages are
        pulled from the pool; allocated pages stay for migration)."""
        return self.allocator.quarantine_range(target)

    def release_quarantine(self, target: AddressRange | None = None) -> int:
        """Undo a soak, returning quarantined pages to the free pool."""
        return self.allocator.release_quarantine(target)

    def allocated_blocks_within(self, target: AddressRange) -> list[tuple[int, int]]:
        """Allocated (addr, size) blocks overlapping *target* — what live
        migration must relocate before the range can be offlined."""
        return self.allocator.allocated_blocks_within(target)


class NumaTopology:
    """Registry of nodes with Linux-style allocation helpers."""

    def __init__(self) -> None:
        self._nodes: dict[int, NumaNode] = {}

    def add(self, node: NumaNode) -> NumaNode:
        if node.node_id in self._nodes:
            raise MmError(f"duplicate node id {node.node_id}")
        self._nodes[node.node_id] = node
        return node

    def node(self, node_id: int) -> NumaNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise MmError(f"no such NUMA node {node_id}") from None

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> list[NumaNode]:
        return [self._nodes[i] for i in sorted(self._nodes)]

    def nodes_of_kind(self, kind: NodeKind) -> list[NumaNode]:
        return [n for n in self.nodes if n.kind is kind]

    def node_of_addr(self, hpa: int) -> NumaNode:
        for node in self.nodes:
            if any(hpa in r for r in node.ranges):
                return node
        raise MmError(f"address {hpa:#x} not on any node")

    def distance(self, node_a: int, node_b: int) -> int:
        """ACPI-SLIT-style distance: 10 local, 21 cross-socket.  Logical
        nodes inherit their physical node's position, so same-socket
        logical nodes are 'local' to each other (§5.2)."""
        a, b = self.node(node_a), self.node(node_b)
        return 10 if a.physical_node == b.physical_node else 21

    # ------------------------------------------------------------------
    # Allocation policies (kernel NUMA memory policy analogues)
    # ------------------------------------------------------------------

    def alloc_on_node(self, node_id: int, size: int) -> int:
        """MPOL_BIND to a single node: fail rather than fall back."""
        return self.node(node_id).alloc_bytes(size)

    def alloc_preferring(self, preferred: int, size: int, allowed: set[int]) -> tuple[int, int]:
        """MPOL_PREFERRED: try *preferred*, then other allowed nodes in
        distance order.  Returns (node_id, address)."""
        if preferred not in allowed:
            raise MmError(f"preferred node {preferred} not in allowed set {allowed}")
        candidates = sorted(
            allowed, key=lambda nid: (self.distance(preferred, nid), nid)
        )
        for nid in candidates:
            try:
                return nid, self._nodes[nid].alloc_bytes(size)
            except OutOfMemoryError:
                continue
        raise OutOfMemoryError(
            f"no node in {sorted(allowed)} can satisfy {size} bytes"
        )

    def free_addr(self, addr: int) -> None:
        """Free by address, routing to the owning node (§5.3: memory
        returns to the corresponding logical node's free pool)."""
        self.node_of_addr(addr).free_addr(addr)
