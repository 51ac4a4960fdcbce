"""Host memory-management substrate (paper §2.2, §5.2, §5.3).

Siloz manages subarray groups with *existing and robust kernel NUMA
primitives*; this package implements those primitives so the Siloz layer
above is a port of the paper's design rather than a sketch:

- :mod:`repro.mm.buddy` — binary-buddy page allocator per memory range,
- :mod:`repro.mm.numa` — physical and logical NUMA nodes + topology,
- :mod:`repro.mm.cgroup` — cpuset-style control groups (mems + tasks),
- :mod:`repro.mm.offline` — page offlining (guard rows, repaired rows),
- :mod:`repro.mm.vmstat` — per-node stat updates (§5.3 skipping).
"""

from repro.mm.buddy import BuddyAllocator
from repro.mm.numa import NodeKind, NumaNode, NumaTopology
from repro.mm.cgroup import Cgroup, CgroupManager, Process
from repro.mm.offline import OfflineRegistry

__all__ = [
    "BuddyAllocator",
    "Cgroup",
    "CgroupManager",
    "NodeKind",
    "NumaNode",
    "NumaTopology",
    "OfflineRegistry",
    "Process",
]
