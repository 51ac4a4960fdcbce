"""One mitigated host inside a simulated fleet.

A :class:`Host` bundles what PR 0–3 built for a single server —
:class:`~repro.hv.machine.Machine`, a hypervisor, and the
:class:`~repro.hv.health.HealthMonitor` — behind the accounting the
fleet layer needs: per-host capacity snapshots (free placement nodes,
guard-row reservations), the VM specs it admitted (so a VM can be
re-created elsewhere during migration), and a loud isolation check that
runs after every placement.

Which hypervisor a host boots is decided by its
:class:`~repro.mitigations.base.Mitigation` (``HostSpec.mitigation``,
default ``"siloz"``): the bake-off harness runs whole fleets under
rival defences through exactly this path, and the isolation check
enforces each mitigation's *own* invariants (a shared-pool baseline
legitimately co-locates tenants; Siloz never may).

Hosts are described by a frozen, picklable :class:`HostSpec` so the
campaign driver can re-boot a bit-identical host inside a worker
process: a host is a pure function of its spec, and a host's DRAM seed
is a pure function of ``(fleet seed, host id)`` — **not** of worker
count or pool order — via :func:`derive_host_seed`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro import obs
from repro.errors import FleetError
from repro.hv.hypervisor import CapacitySnapshot, Hypervisor, VmSpec
from repro.hv.machine import Machine
from repro.hv.vm import VirtualMachine
from repro.log import get_logger
from repro.mitigations import Mitigation, make_mitigation

_log = get_logger("fleet.host")


def derive_host_seed(base_seed: int, host_id: int) -> int:
    """Stable per-host DRAM seed: a pure function of the fleet seed and
    the host id, independent of worker count and pool scheduling order.

    Uses a keyed blake2b digest rather than Python's salted ``hash`` so
    the derivation is identical across processes and interpreter runs —
    the regression tests assert exactly that.
    """
    digest = hashlib.blake2b(
        f"repro.fleet:{base_seed}:{host_id}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") & 0x7FFF_FFFF_FFFF_FFFF


@dataclass(frozen=True)
class HostSpec:
    """Everything needed to boot one fleet host, picklable for workers."""

    host_id: int
    #: The host's DRAM seed (already derived; see :func:`derive_host_seed`).
    seed: int = 0
    sockets: int = 1
    backend: str = "scalar"
    #: Registered mitigation the host boots under (see
    #: :mod:`repro.mitigations.impls`).
    mitigation: str = "siloz"

    def __post_init__(self) -> None:
        if self.host_id < 0:
            raise FleetError("host_id must be non-negative")
        if self.sockets <= 0:
            raise FleetError("sockets must be positive")


class Host:
    """One booted, mitigated server plus fleet-level bookkeeping."""

    def __init__(
        self,
        spec: HostSpec,
        hv: Hypervisor,
        mitigation: Mitigation | None = None,
    ):
        self.spec = spec
        self.hv = hv
        #: The defence this host runs (owns the isolation invariants).
        self.mitigation = mitigation or make_mitigation(spec.mitigation)
        self.monitor = hv.enable_health_monitoring()
        #: VmSpecs admitted to this host, in placement order.  Migration
        #: re-creates a VM on its destination from this record, and the
        #: campaign driver replays the order inside worker processes.
        self.vm_specs: dict[str, VmSpec] = {}

    @classmethod
    def boot(cls, spec: HostSpec) -> "Host":
        """Boot a bit-level small machine and the spec's mitigation."""
        mitigation = make_mitigation(spec.mitigation)
        machine = Machine.small(
            sockets=spec.sockets, seed=spec.seed, backend=spec.backend
        )
        hv = mitigation.boot(machine)
        mitigation.attach(hv, seed=spec.seed)
        return cls(spec, hv, mitigation=mitigation)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    @property
    def host_id(self) -> int:
        return self.spec.host_id

    def capacity(self) -> CapacitySnapshot:
        return self.hv.capacity()

    def create_vm(self, spec: VmSpec) -> VirtualMachine:
        """Place one VM; asserts the one-tenant-per-group invariant
        afterwards and emits the fleet placement event."""
        vm = self.hv.create_vm(spec)
        self.vm_specs[spec.name] = spec
        self.assert_isolation()
        if obs.ENABLED:
            obs.emit(
                obs.PlacementEvent(
                    host=self.host_id,
                    vm=spec.name,
                    node_count=len(vm.node_ids),
                    group_count=len(vm.reserved_groups),
                    bytes=spec.memory_bytes,
                    when=self.hv.machine.dram.clock,
                )
            )
        return vm

    def remove_vm(self, name: str) -> None:
        """Full teardown: shut the VM down and release its reservation
        (the §5.3 privileged path, both steps)."""
        self.hv.destroy_vm(name)
        self.hv.release_reservation(name)
        self.vm_specs.pop(name, None)

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True while the host has row groups it could not fully offline
        (deferred remediation pending) — the fleet's evacuation trigger."""
        return bool(self.hv.offline.pending)

    def assert_isolation(self) -> None:
        """The fleet invariant, checked loudly: no protection domain
        holds two tenants (unless the mitigation declares shared
        domains) and the mitigation's enforced audit subset is clean."""
        self.mitigation.assert_isolation(self)

    def __repr__(self) -> str:
        cap = self.capacity()
        return (
            f"Host(id={self.host_id}, vms={cap.vm_count}, "
            f"free_groups={len(cap.free_guest_node_ids)}/{cap.total_guest_nodes}, "
            f"{'degraded' if self.degraded else 'healthy'})"
        )


@dataclass
class Fleet:
    """The cluster: an ordered collection of hosts."""

    hosts: list[Host] = field(default_factory=list)

    @classmethod
    def boot(
        cls,
        n_hosts: int,
        *,
        seed: int = 0,
        sockets: int = 1,
        backend: str = "scalar",
        mitigation: str = "siloz",
    ) -> "Fleet":
        """Boot *n_hosts* small mitigated hosts with derived seeds."""
        if n_hosts <= 0:
            raise FleetError("a fleet needs at least one host")
        return cls(
            hosts=[
                Host.boot(
                    HostSpec(
                        host_id=i,
                        seed=derive_host_seed(seed, i),
                        sockets=sockets,
                        backend=backend,
                        mitigation=mitigation,
                    )
                )
                for i in range(n_hosts)
            ]
        )

    def __len__(self) -> int:
        return len(self.hosts)

    def __iter__(self):
        return iter(self.hosts)

    def host(self, host_id: int) -> Host:
        for h in self.hosts:
            if h.host_id == host_id:
                return h
        raise FleetError(f"no host {host_id} in fleet")

    def assert_isolation(self) -> None:
        """Fleet-wide invariant check (every host)."""
        for h in self.hosts:
            h.assert_isolation()

    @property
    def free_groups(self) -> int:
        """Free guest group nodes across the fleet (shortfall detail)."""
        return sum(len(h.capacity().free_guest_node_ids) for h in self.hosts)

    def degraded_hosts(self) -> list[Host]:
        return [h for h in self.hosts if h.degraded]

    def total_guest_capacity(self) -> int:
        """Allocatable guest bytes across the fleet *right now* (free
        unreserved group nodes only)."""
        return sum(h.capacity().free_guest_bytes for h in self.hosts)
