"""Host lifetimes: a dropped host is freed by reference counting.

A host's object graph is a tree of strong references; back-references
from allocators, caches and monitors are weak or absent (DESIGN.md,
"Object ownership").  Each case builds a workflow with the cyclic
collector off, drops it, and checks that the hypervisor, its DRAM and
its mapping died at once, and that a collection then finds no
``repro`` object in cyclic garbage.  A table or monitor that outlives
its owner fails with a typed error."""

import gc
import weakref

import pytest

from repro import attack
from repro.core import SilozHypervisor
from repro.dram.disturbance import DisturbanceProfile
from repro.errors import HvError
from repro.eval.experiments import baseline_system, siloz_system
from repro.fleet.admission import iter_arrival_trace
from repro.fleet.cluster import ClusterConfig, ClusterShard, measure_host_shape
from repro.fleet.host import Host, HostSpec
from repro.guest import GuestOS
from repro.hv import Machine, VmSpec
from repro.mitigations import make_mitigation, mitigation_names
from repro.units import MiB, PAGE_4K

#: A GPA/IOVA whose root entry no VM mapping uses, so mapping it must
#: allocate a fresh table page.
FAR = 1 << 40


def _repro_types(objects) -> list[str]:
    return sorted(
        {
            f"{type(o).__module__}.{type(o).__qualname__}"
            for o in objects
            if type(o).__module__.startswith("repro")
        }
    )


def drop_and_collect(build, watch) -> tuple[list[str], list[str]]:
    """Build a root with the collector off, hold weak references to the
    objects ``watch(root)`` names, and drop the root.  Returns the names
    still alive, then the ``repro`` types a collection finds in cyclic
    garbage."""
    gc.collect()  # earlier tests' garbage is not this workflow's
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        root = build()
        refs = {name: weakref.ref(obj) for name, obj in watch(root).items()}
        del root
        alive = [name for name, ref in refs.items() if ref() is not None]
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic = _repro_types(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    return alive, cyclic


def _host_parts(root) -> dict:
    hv = getattr(root, "hv", root)
    return {"hypervisor": hv, "dram": hv.machine.dram, "mapping": hv.machine.mapping}


def assert_freed_by_refcount(build) -> None:
    """Build a root with the collector off, drop it, and check the host
    under it died by reference counting alone."""
    alive, cyclic = drop_and_collect(build, _host_parts)
    assert not alive, f"still alive after del: {alive}"
    assert not cyclic, f"repro objects in cyclic garbage: {cyclic}"


def _campaign():
    """The perfbench containment campaign, plus a passthrough device and
    the victim's teardown."""
    hv = SilozHypervisor.boot(
        Machine.small(
            seed=1, profile=DisturbanceProfile.dimm_fleet()[0], backend="vectorized"
        )
    )
    attacker = hv.create_vm(VmSpec(name="attacker", memory_bytes=2 * MiB))
    hv.create_vm(VmSpec(name="victim", memory_bytes=2 * MiB))
    hv.attach_passthrough_device("attacker", "vf0")
    outcome = attack.attack_from_vm(hv, attacker, seed=0, pattern_budget=4)
    assert outcome.report.flips
    hv.destroy_vm("victim")
    hv.release_reservation("victim")
    return hv


def _mitigated_host(name: str):
    mitigation = make_mitigation(name)
    hv = mitigation.boot(Machine.small(seed=3))
    mitigation.attach(hv, seed=3)
    hv.create_vm(VmSpec(name="tenant", memory_bytes=2 * MiB))
    return hv


def _fleet_host():
    """A fleet host: the health monitor is attached at boot."""
    host = Host.boot(HostSpec(host_id=0, seed=3))
    host.create_vm(VmSpec(name="tenant", memory_bytes=2 * MiB))
    return host


def _guest_processes():
    hv = SilozHypervisor.boot(Machine.small(seed=51))
    guest = GuestOS(hv.create_vm(VmSpec(name="guest", memory_bytes=2 * MiB)))
    guest.spawn("a").write(0x400000, b"x" * 64)
    guest.spawn("b")
    guest.kill("b")
    return hv, guest


class TestHostsDieByRefcount:
    def test_containment_campaign(self):
        assert_freed_by_refcount(_campaign)

    def test_baseline_system(self):
        assert_freed_by_refcount(baseline_system)

    def test_siloz_system(self):
        assert_freed_by_refcount(siloz_system)

    @pytest.mark.parametrize("name", mitigation_names())
    def test_every_mitigation(self, name):
        assert_freed_by_refcount(lambda: _mitigated_host(name))

    def test_fleet_host_with_health_monitor(self):
        assert_freed_by_refcount(_fleet_host)

    def test_guest_os_and_its_processes(self):
        assert_freed_by_refcount(lambda: _guest_processes()[0])


class TestAdmissionShardsDieByRefcount:
    def test_dropped_admission_shard(self):
        # Capacity twins share their shard's free-node count instead of
        # pointing back at the twin fleet that holds them.
        shape = measure_host_shape()
        config = ClusterConfig(hosts=2, vms=40, seed=3, policy="first-fit", shards=1)
        decisions: list = []

        def build():
            shard = ClusterShard(0, range(2), config, shape, decisions.append)
            for spec in iter_arrival_trace(3, 40):
                shard.offer(spec)
            return shard

        def watch(shard):
            return {"shard": shard, "fleet": shard.fleet, "controller": shard.controller}

        alive, cyclic = drop_and_collect(build, watch)
        assert not alive, f"still alive after del: {alive}"
        assert not cyclic, f"repro objects in cyclic garbage: {cyclic}"
        assert any(d.admitted for d in decisions)
        assert any(not d.admitted for d in decisions)


class TestOrphanedTablesFailTyped:
    """A table or monitor kept past its owner raises, never
    ``AttributeError`` on a dead reference."""

    def test_ept_whose_hypervisor_is_gone(self):
        hv = SilozHypervisor.boot(Machine.small(seed=51))
        vm = hv.create_vm(VmSpec(name="a", memory_bytes=2 * MiB))
        ept, hpa = vm.ept, vm.backing[0].start
        hv_ref = weakref.ref(hv)
        del hv, vm
        assert hv_ref() is None
        with pytest.raises(HvError, match="hypervisor is gone"):
            ept.map(FAR, hpa, PAGE_4K)

    def test_iommu_domain_whose_hypervisor_is_gone(self):
        hv = SilozHypervisor.boot(Machine.small(seed=51))
        vm = hv.create_vm(VmSpec(name="a", memory_bytes=2 * MiB))
        domain = hv.attach_passthrough_device("a", "vf0").domain
        hpa = vm.backing[0].start
        del hv, vm
        with pytest.raises(HvError, match="hypervisor is gone"):
            domain.map(FAR, hpa, PAGE_4K)

    def test_health_monitor_whose_hypervisor_is_gone(self):
        hv = SilozHypervisor.boot(Machine.small(seed=51))
        monitor = hv.enable_health_monitoring()
        del hv
        with pytest.raises(HvError, match="hypervisor is gone"):
            monitor.retry_deferred()

    def test_guest_page_table_whose_os_is_gone(self):
        hv, guest = _guest_processes()
        process = guest.processes["a"]
        del guest
        with pytest.raises(HvError, match="guest OS is gone"):
            process.pagetable.map(FAR, process.frames[0], PAGE_4K)
        assert process.read(0x400000, 64) == b"x" * 64
