"""Unit tests for NUMA topology, cgroups, and offlining."""

import pytest

from repro.dram.mapping import AddressRange
from repro.errors import CgroupError, MmError, OfflineError, OutOfMemoryError
from repro.mm import (
    Cgroup,
    CgroupManager,
    NodeKind,
    NumaNode,
    NumaTopology,
    OfflineRegistry,
    Process,
)
from repro.mm.offline import OfflineReason
from repro.units import KiB, MiB, PAGE_2M, PAGE_4K


def make_node(node_id=0, kind=NodeKind.HOST_RESERVED, phys=0, base=0, size=8 * MiB, cpus=()):
    return NumaNode(
        node_id=node_id,
        kind=kind,
        physical_node=phys,
        ranges=[AddressRange(base, base + size)],
        cpus=cpus,
        subarray_groups=(node_id,),
    )


class TestNumaNode:
    def test_memory_only_detection(self):
        assert make_node().is_memory_only
        assert not make_node(cpus=(0, 1)).is_memory_only

    def test_alloc_and_free(self):
        node = make_node()
        addr = node.alloc_bytes(PAGE_2M)
        assert node.free_bytes == 8 * MiB - PAGE_2M
        node.free_addr(addr)
        assert node.free_bytes == 8 * MiB


class TestTopology:
    def setup_method(self):
        self.topo = NumaTopology()
        self.host0 = self.topo.add(make_node(0, NodeKind.HOST_RESERVED, phys=0, base=0, cpus=(0, 1)))
        self.guest1 = self.topo.add(
            make_node(1, NodeKind.GUEST_RESERVED, phys=0, base=8 * MiB)
        )
        self.guest2 = self.topo.add(
            make_node(2, NodeKind.GUEST_RESERVED, phys=1, base=16 * MiB)
        )

    def test_duplicate_id_rejected(self):
        with pytest.raises(MmError):
            self.topo.add(make_node(0))

    def test_unknown_node_rejected(self):
        with pytest.raises(MmError):
            self.topo.node(99)

    def test_nodes_sorted(self):
        assert [n.node_id for n in self.topo.nodes] == [0, 1, 2]

    def test_nodes_of_kind(self):
        guests = self.topo.nodes_of_kind(NodeKind.GUEST_RESERVED)
        assert [n.node_id for n in guests] == [1, 2]

    def test_node_of_addr(self):
        assert self.topo.node_of_addr(9 * MiB).node_id == 1
        with pytest.raises(MmError):
            self.topo.node_of_addr(100 * MiB)

    def test_distance_same_socket_logical_nodes(self):
        assert self.topo.distance(0, 1) == 10
        assert self.topo.distance(0, 2) == 21

    def test_alloc_on_node_binds(self):
        addr = self.topo.alloc_on_node(1, PAGE_4K)
        assert 8 * MiB <= addr < 16 * MiB

    def test_alloc_preferring_falls_back_by_distance(self):
        # Exhaust node 1; preferred allocation falls back to node 0
        # (same socket) before node 2 (remote).
        self.topo.alloc_on_node(1, 8 * MiB)
        nid, addr = self.topo.alloc_preferring(1, PAGE_4K, allowed={0, 1, 2})
        assert nid == 0

    def test_alloc_preferring_requires_membership(self):
        with pytest.raises(MmError):
            self.topo.alloc_preferring(1, PAGE_4K, allowed={0, 2})

    def test_alloc_preferring_oom(self):
        self.topo.alloc_on_node(1, 8 * MiB)
        with pytest.raises(OutOfMemoryError):
            self.topo.alloc_preferring(1, PAGE_4K, allowed={1})

    def test_free_addr_routes_to_owner(self):
        addr = self.topo.alloc_on_node(2, PAGE_4K)
        self.topo.free_addr(addr)
        assert self.guest2.free_bytes == 8 * MiB

    def test_len_and_contains(self):
        assert len(self.topo) == 3
        assert 1 in self.topo and 9 not in self.topo

    def test_overlapping_node_rejected(self):
        with pytest.raises(MmError, match="overlaps node 1"):
            self.topo.add(make_node(3, base=12 * MiB))
        assert 3 not in self.topo
        assert self.topo.node_of_addr(12 * MiB).node_id == 1


def _linear_node_of_addr(topo: NumaTopology, hpa: int):
    """The reference lookup: scan every node's ranges in id order."""
    for node in topo.nodes:
        if any(hpa in r for r in node.ranges):
            return node
    return None


def _gappy_topology() -> NumaTopology:
    """Nodes added out of address order, with multi-range, adjacent,
    empty and gapped ranges."""
    topo = NumaTopology()
    layout = {
        2: [(40, 48), (8, 16)],
        0: [(0, 8), (16, 17), (17, 24), (30, 30)],
        1: [(24, 28), (64, 96)],
    }
    for node_id, spans in layout.items():
        topo.add(
            NumaNode(
                node_id=node_id,
                kind=NodeKind.GUEST_RESERVED,
                physical_node=0,
                ranges=[AddressRange(a * MiB, b * MiB) for a, b in spans],
            )
        )
    return topo


def _siloz_topology() -> NumaTopology:
    from repro.core import SilozHypervisor
    from repro.hv import Machine

    return SilozHypervisor.boot(Machine.small(seed=3)).topology


class TestNodeOfAddrIndex:
    """``node_of_addr`` bisects an address index; it must answer as the
    linear scan over every node's ranges does."""

    @pytest.mark.parametrize("build", [_gappy_topology, _siloz_topology])
    def test_matches_linear_scan_at_every_boundary(self, build):
        topo = build()
        probes = {
            edge + delta
            for node in topo.nodes
            for r in node.ranges
            for edge in (r.start, r.end)
            for delta in (-1, 0, 1)
            if edge + delta >= 0
        }
        owned = unowned = 0
        for hpa in sorted(probes):
            expected = _linear_node_of_addr(topo, hpa)
            if expected is None:
                unowned += 1
                with pytest.raises(MmError, match="not on any node"):
                    topo.node_of_addr(hpa)
            else:
                owned += 1
                assert topo.node_of_addr(hpa) is expected, hex(hpa)
        assert owned and unowned

    def test_empty_topology_owns_nothing(self):
        with pytest.raises(MmError, match="not on any node"):
            NumaTopology().node_of_addr(0)


class TestCgroups:
    def setup_method(self):
        self.mgr = CgroupManager(default_mems={0})
        self.qemu = Process(pid=100, name="qemu-vm0", kvm_privileged=True)
        self.rogue = Process(pid=200, name="rogue")

    def test_create_and_attach(self):
        grp = self.mgr.create("vm0", exclusive_mems={1})
        grp.attach(self.qemu)
        assert self.qemu.cgroup is grp
        assert self.qemu in grp.tasks

    def test_exclusive_mems_conflict(self):
        self.mgr.create("vm0", exclusive_mems={1})
        with pytest.raises(CgroupError):
            self.mgr.create("vm1", exclusive_mems={1})

    def test_non_exclusive_overlap_ok(self):
        self.mgr.create("a", mems={1})
        self.mgr.create("b", mems={1})

    def test_duplicate_name_rejected(self):
        self.mgr.create("vm0")
        with pytest.raises(CgroupError):
            self.mgr.create("vm0")

    def test_destroy_releases_and_reparents(self):
        grp = self.mgr.create("vm0", exclusive_mems={1})
        grp.attach(self.qemu)
        self.mgr.destroy("vm0")
        assert self.qemu.cgroup is self.mgr.root
        # Node 1 is reusable by a new exclusive group now.
        self.mgr.create("vm1", exclusive_mems={1})

    def test_destroy_root_rejected(self):
        with pytest.raises(CgroupError):
            self.mgr.destroy(CgroupManager.ROOT)

    def test_destroy_missing_rejected(self):
        with pytest.raises(CgroupError):
            self.mgr.destroy("nope")

    def test_admission_requires_mems(self):
        grp = self.mgr.create("vm0", mems={1})
        grp.attach(self.qemu)
        self.mgr.check_allocation(self.qemu, 1, node_is_guest_reserved=True)
        with pytest.raises(CgroupError):
            self.mgr.check_allocation(self.qemu, 2, node_is_guest_reserved=True)

    def test_admission_requires_kvm_privilege(self):
        grp = self.mgr.create("vm0", mems={1})
        grp.attach(self.qemu)
        grp.attach(self.rogue)
        with pytest.raises(CgroupError):
            self.mgr.check_allocation(self.rogue, 1, node_is_guest_reserved=True)
        # Host-reserved node: no KVM privilege needed.
        self.mgr.check_allocation(self.rogue, 1, node_is_guest_reserved=False)

    def test_default_cgroup_is_root(self):
        with pytest.raises(CgroupError):
            self.mgr.check_allocation(self.rogue, 5, node_is_guest_reserved=False)
        self.mgr.check_allocation(self.rogue, 0, node_is_guest_reserved=False)

    def test_reattach_moves_task(self):
        a = self.mgr.create("a", mems={1})
        b = self.mgr.create("b", mems={2})
        a.attach(self.qemu)
        b.attach(self.qemu)
        assert self.qemu not in a.tasks and self.qemu in b.tasks


class TestOfflineRegistry:
    def setup_method(self):
        self.node = make_node()
        self.registry = OfflineRegistry()

    def test_offline_removes_from_pool(self):
        target = AddressRange(0, 64 * KiB)
        self.registry.offline(self.node, target, OfflineReason.GUARD_ROW)
        assert self.node.free_bytes == 8 * MiB - 64 * KiB
        assert self.registry.is_offline(0)
        assert not self.registry.is_offline(64 * KiB)

    def test_offline_outside_node_rejected(self):
        with pytest.raises(OfflineError):
            self.registry.offline(
                self.node, AddressRange(100 * MiB, 101 * MiB), OfflineReason.FAULTY
            )

    def test_offline_busy_range_rejected(self):
        addr = self.node.alloc_bytes(PAGE_4K)
        with pytest.raises(OfflineError):
            self.registry.offline(
                self.node,
                AddressRange(addr, addr + PAGE_4K),
                OfflineReason.FAULTY,
            )

    def test_accounting_by_reason(self):
        self.registry.offline(
            self.node, AddressRange(0, 64 * KiB), OfflineReason.GUARD_ROW
        )
        self.registry.offline(
            self.node,
            AddressRange(1 * MiB, 1 * MiB + 8 * KiB),
            OfflineReason.INTER_SUBARRAY_REPAIR,
        )
        assert self.registry.total_bytes() == 64 * KiB + 8 * KiB
        assert self.registry.total_bytes(OfflineReason.GUARD_ROW) == 64 * KiB
        assert self.registry.summary() == {
            "guard-row": 64 * KiB,
            "inter-subarray-repair": 8 * KiB,
        }

    def test_ranges_for_merges(self):
        self.registry.offline(
            self.node, AddressRange(0, 4 * KiB), OfflineReason.GUARD_ROW
        )
        self.registry.offline(
            self.node, AddressRange(4 * KiB, 8 * KiB), OfflineReason.GUARD_ROW
        )
        assert self.registry.ranges_for(OfflineReason.GUARD_ROW) == [
            AddressRange(0, 8 * KiB)
        ]
