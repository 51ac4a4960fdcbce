"""Tests for live page migration: EPT remapping, the runtime
migrate-and-offline path, deferral/retry, and the end-to-end CE-storm
scenario's acceptance criteria."""

import pytest

from repro.core import SilozHypervisor, audit_hypervisor
from repro.core.remediation import offline_row_group_live
from repro.dram.mapping import AddressRange
from repro.errors import OfflineError, OutOfMemoryError
from repro.faults import run_ce_storm_scenario
from repro.hv import Machine, VmSpec
from repro.hv.health import HealthState
from repro.hv.vm import VmState
from repro.mm.offline import OfflineReason
from repro.units import KiB, MiB, PAGE_2M, PAGE_4K


def boot(seed=71):
    return SilozHypervisor.boot(Machine.small(seed=seed))


class TestEptRemapRange:
    def test_4k_leaves_retargeted(self):
        hv = boot()
        vm = hv.create_vm(VmSpec(name="tenant", memory_bytes=2 * MiB))
        old = vm.backing[0].start
        size = hv.backing_page_bytes
        node = hv.topology.node_of_addr(old)
        new = node.alloc_bytes(size)
        moved = vm.ept.remap_range(old, size, new)
        assert moved == size
        assert vm.translate(0x0) == new
        assert vm.translate(size // 2) == new + size // 2
        # GPAs behind other blocks are untouched.
        assert vm.translate(size) not in AddressRange(new, new + size)

    def test_remap_miss_returns_zero(self):
        hv = boot()
        vm = hv.create_vm(VmSpec(name="tenant", memory_bytes=2 * MiB))
        far = vm.backing[0].end + 8 * MiB
        assert vm.ept.remap_range(far, 64 * KiB, far + 64 * KiB) == 0

    def test_large_leaf_split_on_partial_overlap(self):
        from repro.ept.table import ExtendedPageTable
        from repro.mm.numa import NodeKind

        hv = boot()
        # A free guest-reserved node: the host node is too fragmented
        # for a contiguous 2 MiB block after boot-time offlining.
        node = None
        backing = None
        for cand in hv.topology.nodes_of_kind(NodeKind.GUEST_RESERVED):
            try:
                backing = cand.alloc_bytes(PAGE_2M)
            except OutOfMemoryError:
                continue
            node = cand
            break
        assert node is not None
        ept = ExtendedPageTable(
            hv.machine.dram, lambda: node.alloc_bytes(PAGE_4K)
        )
        ept.map(0, backing, PAGE_2M)  # one 2 MiB leaf
        new = node.alloc_bytes(64 * KiB)
        old = backing + 64 * KiB
        moved = ept.remap_range(old, 64 * KiB, new)
        assert moved == 64 * KiB
        # The overlapped 64 KiB window now points at the new frames...
        assert ept.translate(64 * KiB) == new
        assert ept.translate(128 * KiB - 1) == new + 64 * KiB - 1
        # ...while the rest of the split leaf stays on the old frames.
        assert ept.translate(0) == backing
        assert ept.translate(128 * KiB) == backing + 128 * KiB
        assert ept.translate(PAGE_2M - 1) == backing + PAGE_2M - 1
        assert ept.mapped_bytes == PAGE_2M

    def test_alignment_enforced(self):
        hv = boot()
        vm = hv.create_vm(VmSpec(name="tenant", memory_bytes=2 * MiB))
        from repro.errors import EptError

        with pytest.raises(EptError):
            vm.ept.remap_range(1, PAGE_4K, 0)


class TestLiveOfflining:
    def setup_method(self):
        self.hv = boot()
        self.vm = self.hv.create_vm(VmSpec(name="tenant", memory_bytes=2 * MiB))
        self.hpa = self.vm.backing[0].start
        media = self.hv.machine.mapping.decode(self.hpa)
        self.socket, self.row = media.socket, media.row
        self.rg = self.hv.machine.mapping.row_group_ranges(self.socket, self.row)[0]

    def test_migrates_data_and_offlines(self):
        self.vm.write(0x40, b"precious bytes")
        report = offline_row_group_live(self.hv, self.socket, self.row)
        assert report.complete
        assert len(report.migrated) == 1
        moved = report.migrated[0]
        assert moved.vm == "tenant"
        assert AddressRange(moved.old, moved.old + moved.size) == self.rg
        # Mapping moved, data survived, VM still runs.
        assert self.vm.translate(0x0) == moved.new
        assert self.vm.read(0x40, 14) == b"precious bytes"
        assert self.vm.state is VmState.RUNNING
        # Registry: recorded under CE_STORM, index answers O(log n) queries.
        assert self.hv.offline.is_offline(self.rg.start)
        assert self.hv.offline.is_offline(self.rg.end - 1)
        assert not self.hv.offline.is_offline(self.rg.end)
        assert self.hv.offline.total_bytes(OfflineReason.CE_STORM) == self.rg.size

    def test_migration_preserves_isolation(self):
        report = offline_row_group_live(self.hv, self.socket, self.row)
        assert report.violations == []
        new = report.migrated[0].new
        group = self.hv.machine.mapping.subarray_group_of_hpa(new)
        assert group in self.vm.reserved_groups
        assert audit_hypervisor(self.hv) == []

    def test_already_offline_is_noop(self):
        offline_row_group_live(self.hv, self.socket, self.row)
        again = offline_row_group_live(self.hv, self.socket, self.row)
        assert again.already_offline
        assert not again.migrated and not again.deferred

    def test_destroy_vm_after_migration(self):
        report = offline_row_group_live(self.hv, self.socket, self.row)
        assert report.complete
        self.hv.destroy_vm("tenant")  # frees the *new* frames cleanly
        assert self.vm.state is VmState.SHUTDOWN

    def test_free_row_group_offlines_without_migration(self):
        # A row group in the free part of the tenant's node: everything
        # is quarantined+finalized, nothing needs to move.
        free_hpa = None
        node = self.hv.topology.node(self.vm.node_ids[0])
        for row in range(self.hv.machine.geom.rows_per_bank):
            rg = self.hv.machine.mapping.row_group_ranges(0, row)[0]
            inside = any(rg.start >= r.start and rg.end <= r.end for r in node.ranges)
            if inside and not node.allocator.allocated_blocks_within(rg):
                if not self.hv.offline.is_offline(rg.start):
                    free_hpa = rg
                    break
        assert free_hpa is not None
        media = self.hv.machine.mapping.decode(free_hpa.start)
        report = offline_row_group_live(self.hv, media.socket, media.row)
        assert report.complete
        assert not report.migrated
        assert report.offlined_bytes == free_hpa.size


class TestDeferralAndRetry:
    def test_defers_when_no_frames_then_retries(self):
        hv = boot()
        vm = hv.create_vm(VmSpec(name="tenant", memory_bytes=2 * MiB))
        monitor = hv.enable_health_monitoring(auto_remediate=False)
        hpa = vm.backing[0].start
        media = hv.machine.mapping.decode(hpa)
        rg = hv.machine.mapping.row_group_ranges(media.socket, media.row)[0]
        # Exhaust every node the VM could allocate replacements from.
        hoard = []
        for nid in vm.node_ids:
            node = hv.topology.node(nid)
            while True:
                try:
                    hoard.append(node.alloc_bytes(hv.backing_page_bytes))
                except OutOfMemoryError:
                    break
        report = offline_row_group_live(hv, media.socket, media.row)
        assert not report.complete
        assert any("no replacement frames" in d.why for d in report.deferred)
        assert hv.offline.pending and hv.offline.pending[0].range == rg
        assert not hv.offline.is_offline(rg.start)
        # The range stays quarantined: nothing new can land there.
        node = hv.topology.node_of_addr(rg.start)
        assert node.allocator.quarantined_bytes == 0  # fully allocated rg
        # Free the hoard; the deferred offline now completes on retry.
        for addr in hoard:
            hv.topology.free_addr(addr)
        reports = monitor.retry_deferred()
        assert len(reports) == 1 and reports[0].complete
        assert hv.offline.pending == []
        assert hv.offline.is_offline(rg.start)
        assert monitor.state_of(media.socket, media.row) is HealthState.OFFLINED
        assert vm.read(0x0, 8)  # still readable through the remapped EPT

    def test_offline_retired_rejects_busy_range(self):
        hv = boot()
        vm = hv.create_vm(VmSpec(name="tenant", memory_bytes=2 * MiB))
        hpa = vm.backing[0].start
        rg = AddressRange(hpa, hpa + hv.backing_page_bytes)
        node = hv.topology.node_of_addr(hpa)
        with pytest.raises(OfflineError):
            hv.offline.offline_retired(node, rg, OfflineReason.CE_STORM)


class TestOfflineRegistryIndex:
    def test_bisect_index_matches_ranges(self):
        hv = boot()
        entries = hv.offline.entries
        assert entries  # guard rows exist at boot
        for e in entries[:10]:
            assert hv.offline.is_offline(e.range.start)
            assert hv.offline.is_offline(e.range.end - 1)
        # Probe points just outside each entry that no entry covers.
        covered = lambda a: any(a in e.range for e in entries)
        for e in entries[:10]:
            for probe in (e.range.start - 1, e.range.end):
                assert hv.offline.is_offline(probe) == covered(probe)

    def test_index_merges_adjacent(self):
        from repro.mm.offline import OfflineRegistry

        reg = OfflineRegistry()
        reg._index_add(AddressRange(0x2000, 0x3000))
        reg._index_add(AddressRange(0x0000, 0x1000))
        reg._index_add(AddressRange(0x1000, 0x2000))  # bridges the two
        assert reg._index_starts == [0x0000]
        assert reg._index_ends == [0x3000]
        assert reg.is_offline(0x2fff)
        assert not reg.is_offline(0x3000)


class TestScenario:
    def test_ce_storm_acceptance(self):
        result = run_ce_storm_scenario(seed=11)
        assert result.success
        assert result.data_intact
        assert result.row_group_offlined
        assert result.no_vm_killed
        assert result.audit_clean
        assert result.migrated_blocks >= 1

    def test_same_seed_replays_identically(self):
        a = run_ce_storm_scenario(seed=3)
        b = run_ce_storm_scenario(seed=3)
        assert a.transcript == b.transcript
        assert a.replay_key() == b.replay_key()

    def test_different_seed_different_transcript(self):
        a = run_ce_storm_scenario(seed=3)
        b = run_ce_storm_scenario(seed=4)
        assert a.replay_key() != b.replay_key()
