"""Integration tests for the Siloz hypervisor (paper §5)."""

import pytest

from repro.core import (
    EptProtection,
    SilozConfig,
    SilozHypervisor,
    audit_hypervisor,
    classify_flips,
)
from repro.core.groups import ept_block_rows, ept_row
from repro.dram.geometry import DRAMGeometry
from repro.errors import CgroupError, PlacementError
from repro.hv import BaselineHypervisor, Machine, VmSpec
from repro.hv.vm import VmState
from repro.mm.numa import NodeKind
from repro.mm.offline import OfflineReason
from repro.units import GiB, KiB, MiB


def small_siloz(sockets=1, **kwargs):
    machine = Machine.small(sockets=sockets, **kwargs)
    return SilozHypervisor.boot(machine)


def spec(name="vm0", mem=2 * MiB, **kwargs):
    return VmSpec(name=name, memory_bytes=mem, **kwargs)


class TestConfig:
    def test_paper_default(self):
        cfg = SilozConfig.paper_default()
        assert cfg.ept_block_row_groups == 32
        assert cfg.ept_row_group_offset == 12

    def test_paper_reserved_fraction(self):
        """§5.4: b=32 reserves ~0.024 % of each 1 GiB bank."""
        cfg = SilozConfig.paper_default()
        frac = cfg.reserved_fraction(DRAMGeometry.paper_default())
        assert frac == pytest.approx(0.000244, rel=0.01)

    def test_guard_margins_enforced(self):
        with pytest.raises(PlacementError):
            SilozConfig(ept_block_row_groups=32, ept_row_group_offset=2)
        with pytest.raises(PlacementError):
            SilozConfig(ept_block_row_groups=32, ept_row_group_offset=30)

    def test_offset_within_block(self):
        with pytest.raises(PlacementError):
            SilozConfig(ept_block_row_groups=8, ept_row_group_offset=8)

    def test_scaled_for_small_geometry(self):
        geom = DRAMGeometry.small(rows_per_bank=512, rows_per_subarray=64)
        cfg = SilozConfig.scaled_for(geom)
        assert cfg.ept_block_row_groups <= 64
        assert cfg.ept_row_group_offset >= cfg.blast_radius
        cfg.validate_against(geom)

    def test_block_must_fit_subarray(self):
        geom = DRAMGeometry.small()  # 8-row subarrays
        with pytest.raises(PlacementError):
            SilozConfig.paper_default().validate_against(geom)

    def test_presumed_subarray_size_variants(self):
        geom = DRAMGeometry.paper_default()
        for rows in (512, 1024, 2048):
            cfg = SilozConfig(rows_per_subarray=rows)
            assert cfg.effective_geometry(geom).rows_per_subarray == rows

    def test_presumed_size_must_divide(self):
        geom = DRAMGeometry.paper_default()
        with pytest.raises(PlacementError):
            SilozConfig(rows_per_subarray=1000).validate_against(geom)


class TestBootTopology:
    def setup_method(self):
        self.hv = small_siloz()
        self.geom = self.hv.machine.geom

    def test_node_counts(self):
        """One host + (G-1) guest + 1 EPT node per socket (§5.2)."""
        groups = self.geom.groups_per_socket
        assert len(self.hv.topology.nodes_of_kind(NodeKind.HOST_RESERVED)) == 1
        assert (
            len(self.hv.topology.nodes_of_kind(NodeKind.GUEST_RESERVED))
            == groups - 1
        )
        assert len(self.hv.topology.nodes_of_kind(NodeKind.EPT_RESERVED)) == 1

    def test_guest_nodes_memory_only(self):
        for node in self.hv.topology.nodes_of_kind(NodeKind.GUEST_RESERVED):
            assert node.is_memory_only

    def test_host_node_owns_cores(self):
        host = self.hv.topology.node(0)
        assert host.cpus == self.hv.machine.socket_cores(0)

    def test_logical_nodes_remember_physical(self):
        for node in self.hv.topology.nodes:
            assert node.physical_node == 0

    def test_guard_rows_offlined(self):
        cfg = self.hv.config
        expected = cfg.guard_row_groups * self.geom.row_group_bytes
        assert self.hv.offline.total_bytes(OfflineReason.GUARD_ROW) == expected

    def test_each_group_is_exactly_one_node(self):
        seen = {}
        for node in self.hv.topology.nodes:
            if node.kind is NodeKind.EPT_RESERVED:
                continue
            for g in node.subarray_groups:
                assert g not in seen, "group on two nodes"
                seen[g] = node.node_id
        assert set(seen) == set(range(self.geom.groups_per_socket))

    def test_memory_is_fully_accounted(self):
        """nodes + offlined guards == socket capacity, no leaks."""
        total = sum(n.total_bytes for n in self.hv.topology.nodes)
        offlined = 0  # guards are inside host node totals, not extra
        assert total == self.geom.socket_bytes

    def test_ept_block_inside_host_groups_first_subarray(self):
        rows = list(ept_block_rows(self.hv.config, self.geom))
        subarrays = {self.geom.subarray_of_row(r) for r in rows}
        assert len(subarrays) == 1
        assert ept_row(self.hv.config, self.geom) in rows

    def test_describe_mentions_protection(self):
        assert "guard-rows" in self.hv.describe()

    def test_two_socket_topology(self):
        hv = small_siloz(sockets=2)
        assert len(hv.topology.nodes_of_kind(NodeKind.HOST_RESERVED)) == 2
        assert len(hv.topology.nodes_of_kind(NodeKind.EPT_RESERVED)) == 2
        # Host node ids mirror the baseline (0, 1).
        assert hv.topology.node(0).kind is NodeKind.HOST_RESERVED
        assert hv.topology.node(1).kind is NodeKind.HOST_RESERVED


class TestPlacement:
    def setup_method(self):
        self.hv = small_siloz()

    def test_vm_gets_private_guest_nodes(self):
        vm = self.hv.create_vm(spec())
        for nid in vm.node_ids:
            assert self.hv.topology.node(nid).kind is NodeKind.GUEST_RESERVED

    def test_vm_backing_within_reserved_groups(self):
        vm = self.hv.create_vm(spec())
        assert self.hv.groups_of_vm(vm) <= set(vm.reserved_groups)

    def test_two_vms_disjoint_groups(self):
        a = self.hv.create_vm(spec("a"))
        b = self.hv.create_vm(spec("b"))
        assert not (set(a.reserved_groups) & set(b.reserved_groups))
        assert not (self.hv.groups_of_vm(a) & self.hv.groups_of_vm(b))

    def test_audit_clean(self):
        self.hv.create_vm(spec("a"))
        self.hv.create_vm(spec("b"))
        assert audit_hypervisor(self.hv) == []

    def test_audit_flags_baseline(self):
        hv = BaselineHypervisor(Machine.small(), backing_page_bytes=64 * KiB)
        hv.create_vm(spec("a", mem=256 * KiB))
        hv.create_vm(spec("b", mem=256 * KiB))
        violations = audit_hypervisor(hv)
        assert any(v.kind == "co-location" for v in violations)

    def test_large_vm_gets_multiple_nodes(self):
        group = self.hv.machine.geom.subarray_group_bytes
        vm = self.hv.create_vm(spec(mem=2 * group - 2 * MiB))
        assert len(vm.node_ids) >= 2
        assert audit_hypervisor(self.hv) == []

    def test_placement_exhaustion(self):
        group = self.hv.machine.geom.subarray_group_bytes
        guests = len(self.hv.topology.nodes_of_kind(NodeKind.GUEST_RESERVED))
        # Fill every guest node, then one more VM must fail.
        for i in range(guests):
            self.hv.create_vm(spec(f"vm{i}", mem=group - 2 * MiB))
        with pytest.raises(PlacementError):
            self.hv.create_vm(spec("extra", mem=group - 2 * MiB))

    def test_nodes_not_reused_while_reserved(self):
        vm = self.hv.create_vm(spec("a"))
        self.hv.destroy_vm("a")  # shutdown but reservation kept (§5.3)
        b = self.hv.create_vm(spec("b", mem=2 * MiB))
        assert not (set(vm.node_ids) & set(b.node_ids))

    def test_nodes_reusable_after_release(self):
        vm = self.hv.create_vm(spec("a"))
        nodes_a = set(vm.node_ids)
        self.hv.destroy_vm("a")
        self.hv.release_reservation("a")
        b = self.hv.create_vm(spec("b"))
        assert set(b.node_ids) & nodes_a  # lowest nodes get reused

    def test_mediated_pages_on_host_node(self):
        vm = self.hv.create_vm(spec())
        for r in vm.mediated_backing:
            node = self.hv.topology.node_of_addr(r.start)
            assert node.kind is NodeKind.HOST_RESERVED

    def test_unprivileged_process_cannot_take_guest_nodes(self):
        from repro.mm.cgroup import Process

        rogue = Process(pid=1, name="rogue", kvm_privileged=False)
        guest = self.hv.topology.nodes_of_kind(NodeKind.GUEST_RESERVED)[0]
        with pytest.raises(CgroupError):
            self.hv.cgroups.check_allocation(
                rogue, guest.node_id, node_is_guest_reserved=True
            )

    def test_same_socket_preferred(self):
        hv = small_siloz(sockets=2)
        vm = hv.create_vm(spec(socket=1))
        for nid in vm.node_ids:
            assert hv.topology.node(nid).physical_node == 1


class TestEptPlacement:
    def test_ept_pages_in_ept_node(self):
        hv = small_siloz()
        vm = hv.create_vm(spec())
        ept_node = hv.topology.node(hv.provision_result.ept_node_of_socket[0])
        for page in vm.ept.table_pages:
            assert any(page in r for r in ept_node.ranges)

    def test_ept_row_group_is_correct_row(self):
        from repro.core.groups import ept_rows

        hv = small_siloz()
        rows = ept_rows(hv.config, hv.machine.geom)
        vm = hv.create_vm(spec())
        for page in vm.ept.table_pages:
            media = hv.machine.mapping.decode(page)
            assert media.row in rows

    def test_baseline_ept_pages_anywhere(self):
        hv = BaselineHypervisor(Machine.small(), backing_page_bytes=64 * KiB)
        vm = hv.create_vm(spec())
        # kmalloc'd from the general pool: same node as everything else.
        assert all(hv.topology.node_of_addr(p).node_id == 0 for p in vm.ept.table_pages)

    def test_secure_ept_mode_has_no_ept_node(self):
        machine = Machine.small()
        cfg = SilozConfig.scaled_for(
            machine.geom, ept_protection=EptProtection.SECURE_EPT
        )
        hv = SilozHypervisor.boot(machine, cfg)
        assert hv.topology.nodes_of_kind(NodeKind.EPT_RESERVED) == []
        assert hv.offline.total_bytes(OfflineReason.GUARD_ROW) == 0

    def test_secure_ept_vm_walks_with_checker(self):
        machine = Machine.small()
        cfg = SilozConfig.scaled_for(
            machine.geom, ept_protection=EptProtection.SECURE_EPT
        )
        hv = SilozHypervisor.boot(machine, cfg)
        vm = hv.create_vm(spec())
        assert vm.ept.checker is not None
        vm.write(0x1000, b"ok")  # translations verify cleanly
        assert vm.read(0x1000, 2) == b"ok"
        assert vm.ept.checker.checks > 0


class TestFlipAccounting:
    def test_classify_flips_empty_without_attack(self):
        hv = small_siloz()
        vm = hv.create_vm(spec())
        verdict = classify_flips(hv, vm, hv.machine.dram.flips_log)
        assert verdict == (vm.reserved_groups, [], [], {})

    def test_classify_flips_uses_managed_geometry(self):
        from repro.attack.runner import rows_owned_by_vm
        from repro.dram.disturbance import BitFlip
        from repro.mitigations import make_mitigation

        # Presumed subarrays half the physical size: the attacker's
        # group is the upper half of a physical subarray.
        hv = make_mitigation("domain-buddy", rows_per_subarray=32).boot(
            Machine.small()
        )
        attacker = hv.create_vm(spec("attacker", 1 * MiB))
        victim = hv.create_vm(spec("victim", 1 * MiB))
        ((socket, group),) = attacker.reserved_groups
        own = rows_owned_by_vm(hv, attacker)[socket][0]
        theirs = rows_owned_by_vm(hv, victim)[socket][0]
        # Physical-geometry bucketing would misfile the attacker's row.
        assert own // hv.machine.geom.rows_per_subarray != group
        flips = [
            BitFlip(socket, 0, own, 0, own + 1, 0.0),
            BitFlip(socket, 0, theirs, 0, theirs - 1, 0.0),
        ]
        verdict = classify_flips(hv, attacker, flips)
        assert verdict.inside == flips[:1]
        assert verdict.escaped == flips[1:]
        assert verdict.victim_flips == {"victim": 1}

    def test_classify_flips_ignores_shut_down_vms(self):
        from repro.attack.runner import rows_owned_by_vm
        from repro.dram.disturbance import BitFlip

        # A VM shut down but not released (the MCE handler's teardown)
        # keeps its record; a new tenant reuses its freed backing.
        hv = BaselineHypervisor(Machine.small(), backing_page_bytes=4 * KiB)
        departed = hv.create_vm(spec("departed", 1 * MiB))
        old_rows = rows_owned_by_vm(hv, departed)
        hv.destroy_vm("departed")
        hv.create_vm(spec("tenant", 1 * MiB))
        attacker = hv.create_vm(spec("attacker", 1 * MiB))
        new_rows = rows_owned_by_vm(hv, hv.vms["tenant"])
        socket, rows = next(
            (s, sorted(set(r) & set(old_rows.get(s, ()))))
            for s, r in new_rows.items()
            if set(r) & set(old_rows.get(s, ()))
        )
        assert rows, "the tenant should land in the departed VM's hole"
        flips = [BitFlip(socket, 0, row, 0, row + 1, 0.0) for row in rows]
        verdict = classify_flips(hv, attacker, flips)
        assert verdict.victim_flips == {"tenant": len(flips)}


def _per_flip_classify(hv, attacker, flips):
    """The per-flip reference: encode every flip's cache line and ask
    every other tenant whether it owns that HPA."""
    from repro.dram.media import MediaAddress

    groups = frozenset(attacker.reserved_groups) or frozenset(
        hv.groups_of_vm(attacker)
    )
    rows_per_subarray = getattr(hv, "managed_geom", hv.machine.geom).rows_per_subarray
    geom = hv.machine.geom
    inside, escaped, victims = [], [], {}
    for flip in flips:
        bucket = (flip.socket, flip.row // rows_per_subarray) in groups
        (inside if bucket else escaped).append(flip)
        hpa = hv.machine.mapping.encode(
            MediaAddress.from_socket_bank(
                geom, flip.socket, flip.bank, flip.row, (flip.bit // 8 // 64) * 64
            )
        )
        for name, vm in hv.vms.items():
            running = vm.state is VmState.RUNNING
            if name != attacker.name and running and vm.owns_hpa(hpa):
                victims[name] = victims.get(name, 0) + 1
    return groups, inside, escaped, victims


class TestClassifyFlipsMatchesPerFlip:
    """``classify_flips`` looks ownership up once per row group; it must
    agree with the per-flip reference flip for flip, in the same order."""

    @staticmethod
    def _flips(hv, rows, seed, per_row=3):
        import random

        from repro.dram.disturbance import BitFlip

        geom = hv.machine.geom
        rng = random.Random(seed)
        flips = [
            BitFlip(
                socket,
                rng.randrange(geom.banks_per_socket),
                row,
                rng.randrange(geom.row_bytes * 8),
                row + 1,
                float(i),
            )
            for i, (socket, row) in enumerate(rows * per_row)
        ]
        rng.shuffle(flips)  # victims hit in interleaved order
        return flips

    @staticmethod
    def _owner_kinds(hv, attacker, rows):
        """Which of the three cached owner kinds *rows* exercise."""
        from repro.core import policy

        others = [(n, vm) for n, vm in hv.vms.items() if n != attacker.name]
        kinds = set()
        for socket, row in rows:
            (span,) = hv.machine.mapping.row_group_ranges(socket, row)
            owner = policy._row_owner(span, others)
            kinds.add(
                "mixed" if owner is policy._MIXED else "none" if owner is None
                else "owned"
            )
        return kinds

    def _check(self, hv, attacker, rows, seed):
        flips = self._flips(hv, rows, seed)
        got = classify_flips(hv, attacker, flips)
        want = _per_flip_classify(hv, attacker, flips)
        assert (got.groups, got.inside, got.escaped) == want[:3]
        assert list(got.victim_flips.items()) == list(want[3].items())
        return got

    def _all_rows(self, hv):
        geom = hv.machine.geom
        return [(s, r) for s in range(geom.sockets) for r in range(geom.rows_per_bank)]

    def test_siloz(self):
        hv = small_siloz()
        attacker = hv.create_vm(spec("attacker"))
        hv.create_vm(spec("victim-a", 1 * MiB))
        hv.create_vm(spec("victim-b", 1 * MiB))
        rows = self._all_rows(hv)
        # Host-reserved rows hold both victims' mediated pages (and the
        # EPT pages), so they are shared; guest rows belong to one
        # tenant or to nobody.
        assert self._owner_kinds(hv, attacker, rows) == {"mixed", "none", "owned"}
        got = self._check(hv, attacker, rows, seed=1)
        assert set(got.victim_flips) == {"victim-a", "victim-b"}

    def test_baseline_shared_pool(self):
        hv = BaselineHypervisor(Machine.small(), backing_page_bytes=4 * KiB)
        # A departed tenant's hole, refilled in part, splits row groups
        # between the victims, the attacker and the free pool.
        hv.create_vm(spec("departed", 1 * MiB))
        hv.create_vm(spec("victim-a", 1 * MiB))
        hv.destroy_vm("departed")
        hv.release_reservation("departed")
        hv.create_vm(spec("victim-b", 512 * KiB))
        attacker = hv.create_vm(spec("attacker", 1 * MiB))
        rows = self._all_rows(hv)
        assert self._owner_kinds(hv, attacker, rows) == {"mixed", "none", "owned"}
        got = self._check(hv, attacker, rows, seed=2)
        assert set(got.victim_flips) == {"victim-a", "victim-b"}

    def test_baseline_campaign(self):
        # The Table 3 baseline contrast: a real campaign's flips.
        from repro.attack import attack_from_vm

        hv = BaselineHypervisor(
            Machine.small(seed=200, backend="vectorized"), backing_page_bytes=64 * KiB
        )
        attacker = hv.create_vm(spec("attacker"))
        hv.create_vm(spec("victim"))
        outcome = attack_from_vm(hv, attacker, seed=200, pattern_budget=80)
        want = _per_flip_classify(hv, attacker, outcome.report.flips)
        assert (outcome.flips_inside, outcome.flips_escaped) == want[1:3]
        assert list(outcome.victim_flips.items()) == list(want[3].items())
        assert outcome.victim_flips

    def test_mediated_backing_is_owned(self):
        hv = small_siloz()
        attacker = hv.create_vm(spec("attacker"))
        victim = hv.create_vm(spec("victim"))
        assert victim.mediated_backing
        rows = set()
        for r in victim.mediated_backing:
            socket, _bank, _channel, row, _col = hv.machine.mapping.decode_flat(r.start)
            rows.add((socket, row))
        rows = sorted(rows)
        got = self._check(hv, attacker, rows, seed=3)
        assert got.victim_flips  # the cache lines of its mediated pages

    def test_unowned_rows_corrupt_nobody(self):
        hv = small_siloz()
        attacker = hv.create_vm(spec("attacker"))
        hv.create_vm(spec("victim"))
        rows = [
            (s, r) for s, r in self._all_rows(hv)
            if self._owner_kinds(hv, attacker, [(s, r)]) == {"none"}
        ]
        assert rows
        got = self._check(hv, attacker, rows, seed=4)
        assert got.victim_flips == {}
