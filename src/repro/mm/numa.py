"""Physical and logical NUMA nodes (paper §2.2, §5.2).

A conventional ("physical") node is a socket plus its memory pool.
Siloz adds *logical* nodes: memory-only nodes whose pool is one or more
subarray groups, each remembering its parent physical node so NUMA
locality optimisations still work.  This module implements both as one
:class:`NumaNode` type plus a :class:`NumaTopology` registry with
Linux-flavoured allocation entry points.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum

from repro.dram.mapping import AddressRange, merge_ranges
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
        # Address index: every node's non-empty ranges, coalesced and
        # sorted by start; ``_starts`` mirrors it for bisection.
        self._starts: list[int] = []
        self._spans: list[tuple[int, int, NumaNode]] = []

    def add(self, node: NumaNode) -> NumaNode:
        """Register *node*; its ranges may not overlap another node's."""
        if node.node_id in self._nodes:
            raise MmError(f"duplicate node id {node.node_id}")
        spans = [(r.start, r.end, node) for r in merge_ranges(node.ranges) if r.size]
        for start, end, _node in spans:
            i = bisect_right(self._starts, start)
            for other in self._spans[max(i - 1, 0) : i + 1]:
                if other[0] < end and start < other[1]:
                    raise MmError(
                        f"node {node.node_id} range {AddressRange(start, end)} overlaps "
                        f"node {other[2].node_id}"
                    )
        for span in spans:
            i = bisect_right(self._starts, span[0])
            self._starts.insert(i, span[0])
            self._spans.insert(i, span)
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
        """The node whose ranges hold *hpa* (one bisection)."""
        i = bisect_right(self._starts, hpa) - 1
        if i >= 0:
            _start, end, node = self._spans[i]
            if hpa < end:
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
