"""Long-horizon integration scenarios: churn, placement policies, and
the invariants that must survive all of it."""

from repro.attack import attack_from_vm
from repro.core import SilozHypervisor, audit_hypervisor
from repro.errors import PlacementError
from repro.hv import Machine, VmSpec
from repro.mm.numa import NodeKind
from repro.units import MiB
from repro.workloads import run_in_vm


class TestPlacementPolicies:
    def _boot(self):
        machine = Machine.small(sockets=2, seed=71)
        from repro.core import SilozConfig

        return SilozHypervisor(
            machine,
            SilozConfig.scaled_for(machine.geom),
            backing_page_bytes=64 * 1024,
        )

    def test_pack_fills_preferred_socket(self):
        hv = self._boot()
        sockets = []
        for i in range(4):
            vm = hv.create_vm(VmSpec(name=f"vm{i}", memory_bytes=2 * MiB))
            sockets.append(hv.topology.node(vm.node_ids[0]).physical_node)
        assert sockets == [0, 0, 0, 0]


class TestCloudChurn:
    """A compressed 'day in the cloud': boots, workloads, attacks,
    shutdowns, reuse — auditing isolation after every step."""

    def test_churn_preserves_invariants(self):
        hv = SilozHypervisor.boot(Machine.small(sockets=2, seed=72))
        group = hv.machine.geom.subarray_group_bytes

        # Wave 1: fill most of socket 0.
        for i in range(3):
            hv.create_vm(VmSpec(name=f"w1-{i}", memory_bytes=2 * MiB))
        assert audit_hypervisor(hv) == []

        # Tenant runs a workload.
        result = run_in_vm(hv, hv.vm("w1-0"), "redis-b", accesses=3000)
        assert result.execution_seconds > 0

        # A malicious tenant attacks mid-churn.
        outcome = attack_from_vm(hv, hv.vm("w1-1"), seed=72, pattern_budget=20)
        assert outcome.contained and outcome.victim_flips == {}
        assert audit_hypervisor(hv) == []

        # Wave 2: shutdown + release + re-provision larger VMs.
        hv.destroy_vm("w1-0")
        hv.release_reservation("w1-0")
        hv.destroy_vm("w1-2")
        hv.release_reservation("w1-2")
        big = hv.create_vm(VmSpec(name="w2-big", memory_bytes=2 * group - 2 * MiB))
        assert len(big.node_ids) >= 2
        assert audit_hypervisor(hv) == []

        # The attacker from wave 1 is still running; attack again.
        outcome = attack_from_vm(hv, hv.vm("w1-1"), seed=73, pattern_budget=20)
        assert outcome.contained
        assert outcome.victim_flips == {}

        # Wave 3: churn until placement fails, then clean up fully.
        created = []
        for i in range(64):
            try:
                created.append(
                    hv.create_vm(VmSpec(name=f"w3-{i}", memory_bytes=2 * MiB)).name
                )
            except PlacementError:
                break
        assert created, "should fit at least one more VM"
        assert audit_hypervisor(hv) == []
        for name in created + ["w2-big", "w1-1"]:
            hv.destroy_vm(name)
            hv.release_reservation(name)

        # Everything returned: all guest nodes whole again.
        for node in hv.topology.nodes_of_kind(NodeKind.GUEST_RESERVED):
            assert node.free_bytes == node.total_bytes
        # Flips happened during the attacks, but only ever inside the
        # attackers' groups; a final scrub heals the correctable ones.
        assert hv.machine.dram.flips_log
        hv.machine.dram.patrol_scrub()
