"""The Siloz hypervisor (paper §5).

Siloz extends the baseline hypervisor with the paper's three mechanisms:

1. **Subarray groups as logical NUMA nodes** (§5.2): at boot, every
   subarray group becomes a node; one group per socket stays
   host-reserved (with the socket's cores), the rest are memory-only
   guest-reserved nodes.
2. **Placement policy** (§5.1): a VM's unmediated pages are backed only
   by its private guest-reserved node(s), enforced through an exclusive
   control group plus the KVM-privilege check; mediated and host pages
   stay on host-reserved nodes.
3. **EPT integrity** (§5.4): EPT table pages are allocated with GFP_EPT
   from the per-socket EPT row group, whose neighbouring row groups are
   offlined as guard rows (b=32, o=12 at paper scale) — or, with
   ``EptProtection.SECURE_EPT``, integrity-checked on use by the
   TDX/SNP-style checker.
"""

from __future__ import annotations

from repro.core.config import EptProtection, SilozConfig
from repro.log import get_logger
from repro.core.groups import ProvisionResult, provision
from repro.ept.integrity import SecureEptChecker
from repro.ept.table import ExtendedPageTable
from repro.errors import OutOfMemoryError, PlacementError
from repro.hv.hypervisor import Hypervisor, VmSpec, admission_bytes
from repro.hv.machine import Machine
from repro.hv.vm import VirtualMachine
from repro.mm.numa import NodeKind
from repro.units import PAGE_2M, PAGE_4K


_log = get_logger("core.siloz")


class SilozHypervisor(Hypervisor):
    """Linux/KVM with subarray-group isolation."""

    #: Placement policies: "pack" fills the preferred socket's lowest
    #: nodes first (maximises contiguous free groups for big VMs);
    #: "spread" balances VMs across sockets (evens memory traffic).
    PLACEMENT_POLICIES = ("pack", "spread")

    def __init__(
        self,
        machine: Machine,
        config: SilozConfig | None = None,
        *,
        backing_page_bytes: int = PAGE_2M,
        placement_policy: str = "pack",
    ):
        if placement_policy not in self.PLACEMENT_POLICIES:
            raise PlacementError(
                f"unknown placement policy {placement_policy!r}; "
                f"know {self.PLACEMENT_POLICIES}"
            )
        # _build_topology (called by the base initializer) needs the
        # config, so stash it first.
        self.config = config or SilozConfig.paper_default()
        self.placement_policy = placement_policy
        self._provision: ProvisionResult | None = None
        super().__init__(machine, backing_page_bytes=backing_page_bytes)

    @classmethod
    def boot(
        cls,
        machine: Machine,
        config: SilozConfig | None = None,
        *,
        backing_page_bytes: int | None = None,
        infer_subarray_size: bool = False,
        measure_blast_radius: bool = False,
        repairs=None,
        dimm_transforms=None,
    ) -> "SilozHypervisor":
        """Boot Siloz on *machine*; small machines automatically get a
        scaled guard block and page-granular backing.

        ``infer_subarray_size`` runs the mFIT-style calibration (§4.1)
        instead of trusting the geometry's subarray parameter, and
        ``measure_blast_radius`` runs the BLASTER-style sweep to derive
        the guard blast radius — the paths for servers whose DRAM vendor
        shares nothing.  Both probes run on a scratch copy of the DRAM
        (a pre-production calibration pass), leaving the real module's
        flip log clean."""
        geom = machine.geom
        if (infer_subarray_size or measure_blast_radius) and config is None:
            from repro.dram.module import SimulatedDram

            probe = SimulatedDram(
                geom,
                profile=machine.dram.disturbance.profile,
                trr_config=None,
                seed=1,
            )
            rows = geom.rows_per_subarray
            if infer_subarray_size:
                from repro.attack.mfit import infer_subarray_rows, verify_inference

                rows = infer_subarray_rows(probe)
                if not verify_inference(probe, rows):
                    raise PlacementError(
                        f"inferred subarray size {rows} failed sanity checks"
                    )
            radius = None
            if measure_blast_radius:
                from repro.attack.blaster import measure_blast_radius as _measure

                radius = _measure(probe).radius()
            if rows >= 512 and (radius is None or radius <= 4):
                config = SilozConfig(rows_per_subarray=rows)
            else:
                config = SilozConfig.scaled_for(
                    geom,
                    rows_per_subarray=rows,
                    blast_radius=radius if radius is not None else 2,
                )
        if config is None:
            if geom.rows_per_subarray >= 512:
                config = SilozConfig.paper_default()
            else:
                config = SilozConfig.scaled_for(geom)
        if backing_page_bytes is None:
            backing_page_bytes = (
                PAGE_2M if geom.subarray_group_bytes >= 16 * PAGE_2M else 16 * PAGE_4K
            )
        hv = cls(machine, config, backing_page_bytes=backing_page_bytes)
        if repairs or (dimm_transforms is not None and dimm_transforms.scrambling):
            # §6: remove isolation-violating rows from allocatable
            # memory (inter-subarray repairs, scrambling boundaries).
            from repro.core.remediation import apply_remediation, plan_remediation

            plan = plan_remediation(
                hv.managed_geom, repairs=repairs, transforms=dimm_transforms
            )
            apply_remediation(hv, plan)
        return hv

    # ------------------------------------------------------------------
    # Topology (§5.2, §5.3)
    # ------------------------------------------------------------------

    def _build_topology(self) -> None:
        from repro.mm.vmstat import VmStatReporter

        cores = {
            s: self.machine.socket_cores(s) for s in range(self.machine.geom.sockets)
        }
        self._provision = provision(
            self.machine.geom,
            self.machine.mapping,
            self.config,
            cores,
            self.offline,
        )
        self.topology = self._provision.topology
        # §5.3: skip periodic stat updates for booted guests' nodes.
        self.vmstat = VmStatReporter(self.topology)
        _log.info(
            "provisioned %d logical nodes (%d guest-reserved), EPT protection=%s",
            len(self.topology),
            len(self._provision.guest_node_ids()),
            self.config.ept_protection.value,
        )

    @property
    def provision_result(self) -> ProvisionResult:
        assert self._provision is not None
        return self._provision

    @property
    def managed_geom(self):
        """Geometry with the *presumed* subarray size (§7.4 variants)."""
        return self.config.effective_geometry(self.machine.geom)

    def _guest_nodes_exclusive(self) -> bool:
        return True

    # ------------------------------------------------------------------
    # Placement (§5.1)
    # ------------------------------------------------------------------

    def _reserved_node_ids(self) -> set[int]:
        return self._nodes_unavailable_for_placement()

    def _socket_preference(self, spec: VmSpec, free_nodes) -> dict[int, int]:
        """Rank sockets for this VM.  "pack" honours spec.socket then
        socket order; "spread" prefers the socket with the most free
        guest nodes (ties to spec.socket)."""
        if self.placement_policy == "pack":
            return {
                s: (0 if s == spec.socket else 1 + s)
                for s in range(self.machine.geom.sockets)
            }
        free_per_socket: dict[int, int] = {}
        for node in free_nodes:
            free_per_socket[node.physical_node] = (
                free_per_socket.get(node.physical_node, 0) + 1
            )
        return {
            s: (-free_per_socket.get(s, 0), s != spec.socket)
            for s in range(self.machine.geom.sockets)
        }

    def _place_vm(self, spec: VmSpec) -> tuple[tuple[int, ...], frozenset]:
        """Pick enough free guest-reserved nodes, preferring the VM's
        socket (physical-NUMA locality, §5.2), falling back remote."""
        needed = admission_bytes(spec, self.backing_page_bytes)
        chosen: list[int] = []
        total = 0
        reserved = self._reserved_node_ids()
        free_nodes = [
            n
            for n in self.topology.nodes_of_kind(NodeKind.GUEST_RESERVED)
            if n.node_id not in reserved
        ]
        rank = self._socket_preference(spec, free_nodes)
        candidates = sorted(
            free_nodes,
            key=lambda n: (rank[n.physical_node], n.node_id),
        )
        for node in candidates:
            chosen.append(node.node_id)
            total += node.free_bytes
            if total >= needed:
                break
        if total < needed:
            # Typed capacity error: how many guest nodes the request
            # would have needed (at this host's provisioning granularity)
            # vs how many were actually free — the fleet scheduler keys
            # "host full" off these fields (``PlacementError.is_capacity``).
            per_node = max(
                (n.total_bytes for n in self.topology.nodes_of_kind(NodeKind.GUEST_RESERVED)),
                default=self.managed_geom.subarray_group_bytes,
            )
            raise PlacementError(
                f"cannot reserve {spec.memory_bytes:#x} bytes of guest-"
                f"reserved subarray groups for VM {spec.name!r}: "
                f"{len(free_nodes)} free group node(s) hold {total:#x} bytes",
                requested_groups=-(-needed // per_node),
                available_groups=len(free_nodes),
            )
        groups = frozenset(
            (self.topology.node(nid).physical_node, g)
            for nid in chosen
            for g in self.topology.node(nid).subarray_groups
        )
        return tuple(chosen), groups

    # ------------------------------------------------------------------
    # EPT placement and protection (§5.4)
    # ------------------------------------------------------------------

    def _alloc_ept_page(self, socket: int) -> int:
        """GFP_EPT: table pages come from the socket's protected EPT row
        group (guard-row mode) or the host pool (secure-EPT mode)."""
        if self.config.ept_protection is EptProtection.GUARD_ROWS:
            node_id = self.provision_result.ept_node_of_socket[socket]
            try:
                return self.topology.alloc_on_node(node_id, PAGE_4K)
            except OutOfMemoryError:
                # Same-socket row group full: use the other socket's
                # (still guard-protected, just remote).
                for other, nid in self.provision_result.ept_node_of_socket.items():
                    if other != socket:
                        return self.topology.alloc_on_node(nid, PAGE_4K)
                raise
        return self.topology.alloc_on_node(socket, PAGE_4K)

    def destroy_vm(self, name: str) -> None:
        """Shut the VM down and unfreeze its nodes' vmstat entries."""
        vm = self.vm(name)
        super().destroy_vm(name)
        # Freed memory changes the nodes' stats again (§5.3: static only
        # while the VM runs).
        for node_id in vm.node_ids:
            self.vmstat.mark_dynamic(node_id)

    def create_vm(self, spec: VmSpec) -> VirtualMachine:
        """Place and boot a VM on private guest-reserved nodes (§5.1)."""
        vm = super().create_vm(spec)
        _log.info(
            "VM %s placed on nodes %s (groups %s)",
            spec.name,
            vm.node_ids,
            sorted(vm.reserved_groups),
        )
        for node_id in vm.node_ids:
            self.vmstat.mark_static(node_id)
        if self.config.ept_protection is EptProtection.SECURE_EPT:
            # Rebuild the EPT with integrity checking.  (The base class
            # built it unchecked; re-recording is equivalent to the TDX
            # module owning the pages from the start.)
            checker = SecureEptChecker()
            vm.ept.checker = checker
            self._re_record_ept(vm.ept, checker)
        return vm

    def _re_record_ept(self, ept: ExtendedPageTable, checker: SecureEptChecker) -> None:
        from repro.ept.entry import ENTRIES_PER_PAGE, ENTRY_BYTES, EptEntry

        for table in ept.table_pages:
            for i in range(ENTRIES_PER_PAGE):
                addr = table + i * ENTRY_BYTES
                raw = self.machine.dram.read(addr, ENTRY_BYTES)
                if EptEntry.unpack(raw).present:
                    checker.record(addr, raw)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """One-paragraph topology/protection summary for logs and docs."""
        geom = self.managed_geom
        guests = self.topology.nodes_of_kind(NodeKind.GUEST_RESERVED)
        epts = self.topology.nodes_of_kind(NodeKind.EPT_RESERVED)
        return (
            f"Siloz: {len(self.topology)} logical nodes "
            f"({geom.sockets} host, {len(guests)} guest-reserved, "
            f"{len(epts)} EPT) over {geom.groups_per_socket} groups/socket "
            f"of {geom.subarray_group_bytes} bytes; "
            f"EPT protection: {self.config.ept_protection.value}; "
            f"reserved for EPT+guards: "
            f"{self.config.reserved_fraction(geom) * 100:.3f}% of DRAM"
        )
