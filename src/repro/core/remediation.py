"""Boot-time remediation of isolation-violating rows (paper §6).

Two DIMM-internal effects can silently move cells across subarray
boundaries: vendor *row repairs* whose spare row lives in a different
subarray, and vendor *row-address scrambling* when the subarray size is
not a multiple of 8.  The paper's mitigation is the same one Linux uses
for failing pages: identify the affected rows via the address-
translation drivers and remove their pages from allocatable memory.

Because pages interleave across every bank of a socket, "the pages
mapping to a row" of any single bank are exactly the pages of that row's
*row group* — so remediation offlines whole row groups.  The cost
matches the paper's accounting: repairs affect ~0.15 % of rows; the
scrambling workaround costs ``8 / rows_per_subarray`` of memory.

``plan_remediation`` computes what to offline;
``SilozHypervisor.boot(..., repairs=..., dimm_transforms=...)`` applies
it during provisioning, before any allocations exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.dram.geometry import DRAMGeometry
from repro.dram.mapping import AddressRange, SkylakeMapping
from repro.dram.transforms import RepairMap, TransformConfig
from repro.errors import MmError, OutOfMemoryError, UncorrectableError
from repro.log import get_logger
from repro.mm.offline import OfflineReason

_log = get_logger("core.remediation")


@dataclass(frozen=True)
class RemediationItem:
    """One row group to offline, with its cause."""

    socket: int
    row: int
    reason: OfflineReason


def scrambling_boundary_rows(geom: DRAMGeometry) -> list[int]:
    """Bank-local rows inside the aligned 8-row block straddling each
    subarray boundary — the §6 scrambling hazard.  Empty when the
    subarray size is a multiple of 8 (scrambling is then harmless)."""
    size = geom.rows_per_subarray
    if size % 8 == 0:
        return []
    rows: set[int] = set()
    for boundary in range(size, geom.rows_per_bank, size):
        block_start = (boundary // 8) * 8
        rows.update(
            r for r in range(block_start, block_start + 8) if r < geom.rows_per_bank
        )
    return sorted(rows)


def plan_remediation(
    geom: DRAMGeometry,
    *,
    repairs: dict[tuple[int, int], RepairMap] | None = None,
    transforms: TransformConfig | None = None,
) -> list[RemediationItem]:
    """Everything §6 says to offline for this DIMM population.

    ``repairs`` maps (socket, socket-flat bank) to that bank's repair
    map; only *inter-subarray* repairs matter.  ``transforms`` triggers
    the scrambling analysis when it scrambles and the subarray size is
    not a multiple of 8."""
    items: list[RemediationItem] = []
    seen: set[tuple[int, int]] = set()
    for (socket, _bank), repair_map in sorted((repairs or {}).items()):
        for row in repair_map.rows_to_offline():
            if (socket, row) in seen:
                continue
            seen.add((socket, row))
            items.append(
                RemediationItem(socket, row, OfflineReason.INTER_SUBARRAY_REPAIR)
            )
    if transforms is not None and transforms.scrambling:
        for socket in range(geom.sockets):
            for row in scrambling_boundary_rows(geom):
                if (socket, row) in seen:
                    continue
                seen.add((socket, row))
                items.append(
                    RemediationItem(socket, row, OfflineReason.SCRAMBLING_BOUNDARY)
                )
    return items


def remediation_ranges(
    mapping: SkylakeMapping, items: list[RemediationItem]
) -> list[tuple[AddressRange, OfflineReason, int]]:
    """(HPA range, reason, socket) per offlined row group.

    Ranges are kept one-per-row-group (not merged): scrambling-boundary
    blocks straddle subarray-group boundaries, and each side belongs to
    a different logical node, which offlines its part separately."""
    out: list[tuple[AddressRange, OfflineReason, int]] = []
    for item in items:
        for r in mapping.row_group_ranges(item.socket, item.row):
            out.append((r, item.reason, item.socket))
    return out


#: Replacement-frame allocation attempts per block before the runtime
#: migrate-and-offline path defers it; each retry first waits
#: ``ALLOC_BACKOFF_S`` of simulated time, doubling, modelling reclaim.
ALLOC_RETRIES = 3
ALLOC_BACKOFF_S = 0.001


@dataclass(frozen=True)
class MigratedBlock:
    """One backing block successfully moved (old frames retired)."""

    vm: str
    old: int
    new: int
    size: int


@dataclass(frozen=True)
class DeferredBlock:
    """One backing block migration could not move (and why)."""

    addr: int
    size: int
    why: str


@dataclass
class MigrationReport:
    """Outcome of one runtime row-group offlining."""

    socket: int
    row: int
    migrated: list[MigratedBlock] = field(default_factory=list)
    deferred: list[DeferredBlock] = field(default_factory=list)
    offlined_bytes: int = 0
    already_offline: bool = False
    violations: list = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """True when the row group is fully out of circulation (nothing
        deferred) and migration introduced no isolation violations."""
        return not self.deferred and not self.violations

    def summary(self) -> str:
        """One-line transcript form."""
        state = "offlined" if self.complete else "deferred"
        return (
            f"row group (s{self.socket} r{self.row}) {state}: "
            f"{len(self.migrated)} migrated, {len(self.deferred)} deferred, "
            f"{self.offlined_bytes} bytes retired, "
            f"{len(self.violations)} violation(s)"
        )


def _alloc_replacement(hv, vm, home_node, size: int, mediated: bool):
    """Pick fresh frames for a migrating block, preserving placement:
    unmediated blocks stay within the VM's own reserved nodes (home node
    first, then its other nodes — same subarray groups, the Siloz
    invariant), mediated blocks stay on host-reserved nodes.  Returns
    the new address or None after all retries."""
    from repro.mm.numa import NodeKind

    if mediated:
        candidates = [
            n.node_id for n in hv.topology.nodes_of_kind(NodeKind.HOST_RESERVED)
        ]
    else:
        candidates = [home_node.node_id] + [
            nid for nid in vm.node_ids if nid != home_node.node_id
        ]
    backoff = ALLOC_BACKOFF_S
    for attempt in range(ALLOC_RETRIES + 1):
        for nid in candidates:
            try:
                return hv.topology.node(nid).alloc_bytes(size)
            except OutOfMemoryError:
                continue
        if attempt < ALLOC_RETRIES:
            # Model waiting for reclaim: let simulated time pass, then
            # retry (another tenant may have freed frames meanwhile).
            hv.machine.dram.advance_time(backoff)
            backoff *= 2
    return None


def offline_row_group_live(
    hv,
    socket: int,
    row: int,
    *,
    reason: OfflineReason = OfflineReason.CE_STORM,
) -> MigrationReport:
    """Runtime counterpart of :func:`apply_remediation`: take a row
    group out of service *while VMs are running on it*.

    Free pages are quarantined; still-allocated backing blocks are
    copied to fresh frames inside the owning VM's own reservation (same
    subarray groups — migration must not break the isolation the system
    exists to provide), their EPT/IOMMU leaves are retargeted, and the
    emptied frames are retired.  Blocks that cannot move — EPT table
    pages, unknown owners, frames whose data machine-checks on read, or
    no free frames after retries — leave the row group *deferred*: still
    quarantined, re-attempted later via
    :meth:`~repro.hv.health.HealthMonitor.retry_deferred`.

    Always finishes with a full isolation audit; the findings ride on
    the report and gate :attr:`MigrationReport.complete`.
    """
    from repro.core.policy import audit_hypervisor

    dram = hv.machine.dram
    report = MigrationReport(socket=socket, row=row)
    with obs.span("remediation.offline_row_group_live", sim_when=dram.clock):
        _offline_row_group_live(hv, report, dram, socket, row, reason)
    report.violations = audit_hypervisor(hv)
    if obs.ENABLED:
        obs.emit(
            obs.RemediationEvent(
                socket=socket,
                row=row,
                migrated=len(report.migrated),
                deferred=len(report.deferred),
                offlined_bytes=report.offlined_bytes,
                when=dram.clock,
            )
        )
    _log.info("%s", report.summary())
    return report


def _offline_row_group_live(
    hv, report: MigrationReport, dram, socket: int, row: int, reason: OfflineReason
) -> None:
    for rg in hv.machine.mapping.row_group_ranges(socket, row):
        if hv.offline.is_offline(rg.start) and hv.offline.is_offline(rg.end - 1):
            report.already_offline = True
            continue
        try:
            node = hv.topology.node_of_addr(rg.start)
        except MmError:
            continue  # not under any node (e.g. carved out at boot)
        node.quarantine_range(rg)
        deferred_here: list[DeferredBlock] = []
        for addr, size in node.allocated_blocks_within(rg):
            table_owner = hv.table_page_owner(addr)
            if table_owner is not None:
                deferred_here.append(
                    DeferredBlock(addr, size, f"ept-table page of {table_owner!r}")
                )
                continue
            owned = hv.vm_block_owner(addr)
            if owned is None:
                deferred_here.append(DeferredBlock(addr, size, "unknown owner"))
                continue
            vm, mediated = owned
            new = _alloc_replacement(hv, vm, node, size, mediated)
            if new is None:
                deferred_here.append(
                    DeferredBlock(addr, size, "no replacement frames")
                )
                continue
            try:
                data = dram.read_region(addr, size)  # ECC heals CEs into the copy
            except UncorrectableError as exc:
                hv.topology.free_addr(new)
                deferred_here.append(
                    DeferredBlock(addr, size, f"uncorrectable data: {exc}")
                )
                continue
            dram.write(new, data)
            hv.relocate_block(vm, addr, size, new)
            node.allocator.retire(addr)
            report.migrated.append(MigratedBlock(vm.name, addr, new, size))
        if deferred_here:
            report.deferred.extend(deferred_here)
            hv.offline.defer(
                node.node_id, rg, reason, "; ".join(d.why for d in deferred_here)
            )
        else:
            report.offlined_bytes += hv.offline.offline_retired(node, rg, reason)


def apply_remediation(hv, items: list[RemediationItem]) -> int:
    """Offline every planned row group from its owning node; returns the
    number of bytes removed.  Must run before allocations (boot)."""
    total = 0
    for merged, reason, _socket in remediation_ranges(hv.machine.mapping, items):
        if hv.offline.is_offline(merged.start) and hv.offline.is_offline(
            merged.end - 1
        ):
            continue  # already unallocatable (e.g. inside the guard block)
        node = hv.topology.node_of_addr(merged.start)
        hv.offline.offline(node, merged, reason)
        total += merged.size
    if total:
        _log.info(
            "remediated %d row group(s): %d bytes offlined", len(items), total
        )
    return total
