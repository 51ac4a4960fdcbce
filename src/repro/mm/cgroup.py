"""Cpuset-style control groups (paper §5.2, §5.3).

Siloz restricts which processes may allocate from guest-reserved nodes
using a Linux control group whose ``mems`` lists the permitted NUMA
nodes, combined with a KVM-privilege check on the requesting process.
This module models exactly that: processes belong to cgroups; a cgroup
grants (node) allocation rights; guest-reserved nodes additionally
require KVM privilege.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from repro.errors import CgroupError


@dataclass
class Process:
    """A host process (e.g. a QEMU instance managing one VM)."""

    pid: int
    name: str
    kvm_privileged: bool = False
    cgroup: "Cgroup | None" = None

    def __hash__(self) -> int:
        return hash(self.pid)


@dataclass
class Cgroup:
    """A cpuset cgroup: shared mems plus exclusively-owned mems.

    ``exclusive_mems`` model cpuset's mem_exclusive for the guest-
    reserved nodes a VM owns; ``mems`` are shared nodes (the host pool
    QEMU also needs, for mediated pages).  A process owns its membership
    (``Process.cgroup``); ``tasks`` lists the live members weakly, so a
    process and its group never form a reference cycle."""

    name: str
    mems: set[int] = field(default_factory=set)
    exclusive_mems: set[int] = field(default_factory=set)
    tasks: "weakref.WeakSet[Process]" = field(default_factory=weakref.WeakSet)

    def attach(self, process: Process) -> None:
        if process.cgroup is not None and process.cgroup is not self:
            process.cgroup.tasks.discard(process)
        process.cgroup = self
        self.tasks.add(process)

    def allows_node(self, node_id: int) -> bool:
        return node_id in self.mems or node_id in self.exclusive_mems


class CgroupManager:
    """The cgroup hierarchy (flat — one level is all Siloz needs)."""

    ROOT = "root"

    def __init__(self, default_mems: set[int] | None = None):
        self._groups: dict[str, Cgroup] = {}
        self.root = self.create(self.ROOT, mems=default_mems or set())

    def create(
        self,
        name: str,
        *,
        mems: set[int] | None = None,
        exclusive_mems: set[int] | None = None,
    ) -> Cgroup:
        """Create a cgroup; exclusive_mems may not overlap any existing
        group's exclusive ownership."""
        if name in self._groups:
            raise CgroupError(f"cgroup {name!r} already exists")
        mems = set(mems or ())
        exclusive_mems = set(exclusive_mems or ())
        for other in self._groups.values():
            taken = other.exclusive_mems & (exclusive_mems | mems)
            if taken:
                raise CgroupError(
                    f"mems {sorted(taken)} already exclusively owned by "
                    f"{other.name!r}"
                )
        group = Cgroup(name=name, mems=mems, exclusive_mems=exclusive_mems)
        self._groups[name] = group
        return group

    def destroy(self, name: str) -> None:
        """Destroying a cgroup releases its node reservation (§5.3)."""
        if name == self.ROOT:
            raise CgroupError("cannot destroy the root cgroup")
        group = self._groups.pop(name, None)
        if group is None:
            raise CgroupError(f"no such cgroup {name!r}")
        for task in group.tasks:
            task.cgroup = self.root
            self.root.tasks.add(task)

    def check_allocation(
        self, process: Process, node_id: int, *, node_is_guest_reserved: bool
    ) -> None:
        """Raise :class:`CgroupError` unless *process* may allocate on
        *node_id* (the §5.3 admission check).

        Guest-reserved nodes require both cgroup membership listing the
        node *and* KVM privilege; other nodes require only the cgroup's
        mems to include the node.
        """
        group = process.cgroup or self.root
        if not group.allows_node(node_id):
            raise CgroupError(
                f"process {process.pid} ({process.name}) in cgroup "
                f"{group.name!r} may not allocate on node {node_id}"
            )
        if node_is_guest_reserved and not process.kvm_privileged:
            raise CgroupError(
                f"process {process.pid} ({process.name}) lacks KVM privilege "
                f"for guest-reserved node {node_id}"
            )
