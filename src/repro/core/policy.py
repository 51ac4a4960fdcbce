"""The two isolation verdicts Siloz promises (paper §5.1–§5.3, §7.1).

:func:`audit_hypervisor` is the placement verdict: every invariant the
placement and guard-row machinery must hold, as a list of findings.
:func:`classify_flips` is the flip verdict: where an attacker's flips
landed.  Neither mutates anything.  Under Siloz the audit must be empty
(tests assert that); under the baseline the same audit *finds* the
co-location that makes inter-VM Rowhammer possible, which is how the
security benches show the contrast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from repro.dram.disturbance import BitFlip
from repro.dram.mapping import AddressRange
from repro.dram.media import MediaAddress
from repro.hv.hypervisor import Hypervisor
from repro.hv.vm import VirtualMachine, VmState
from repro.mm.numa import NodeKind
from repro.mm.offline import OfflineReason


@dataclass(frozen=True)
class Violation:
    """One isolation-audit finding."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail}"


def audit_hypervisor(hv: Hypervisor) -> list[Violation]:
    """All placement invariants at once.

    1. Every VM's unmediated backing lies within its reserved groups
       (vacuous for the baseline, which reserves nothing).
    2. No two running VMs share a subarray group.
    3. No VM shares a group with host-reserved memory.
    4. Mediated backing lies on host-reserved nodes.
    5. Guard rows stay retired: every boot-time guard range is still
       registered offline and no VM's backing overlaps one (a guard row
       handed back to a tenant reopens the cross-group disturbance
       channel it exists to close).
    """
    violations: list[Violation] = []
    running = [vm for vm in hv.vms.values() if vm.state is VmState.RUNNING]
    host_groups = {
        (n.physical_node, g)
        for n in hv.topology.nodes_of_kind(NodeKind.HOST_RESERVED)
        for g in n.subarray_groups
    }

    groups_by_vm = {vm.name: hv.groups_of_vm(vm) for vm in running}

    for vm in running:
        groups = groups_by_vm[vm.name]
        if vm.reserved_groups and not groups <= set(vm.reserved_groups):
            stray = groups - set(vm.reserved_groups)
            violations.append(
                Violation(
                    "escape",
                    f"VM {vm.name} has unmediated pages in non-reserved "
                    f"groups {sorted(stray)}",
                )
            )
        overlap = groups & host_groups
        if vm.reserved_groups and overlap:
            violations.append(
                Violation(
                    "host-overlap",
                    f"VM {vm.name} shares groups {sorted(overlap)} with the host",
                )
            )
        for r in vm.mediated_backing:
            node = hv.topology.node_of_addr(r.start)
            if node.kind is not NodeKind.HOST_RESERVED:
                violations.append(
                    Violation(
                        "mediated-misplaced",
                        f"VM {vm.name} mediated range {r} on {node.kind.value} "
                        f"node {node.node_id}",
                    )
                )

    names = sorted(groups_by_vm)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            shared = groups_by_vm[a] & groups_by_vm[b]
            if shared:
                violations.append(
                    Violation(
                        "co-location",
                        f"VMs {a} and {b} share subarray groups {sorted(shared)}",
                    )
                )

    guards = hv.offline.ranges_for(OfflineReason.GUARD_ROW)
    for g in guards:
        if not hv.offline.is_offline(g.start) or not hv.offline.is_offline(g.end - 1):
            violations.append(
                Violation(
                    "guard-rows",
                    f"guard range {g.start:#x}-{g.end:#x} no longer "
                    "registered offline",
                )
            )
    for name in sorted(hv.vms):
        for block in hv.vms[name].backing:
            for g in guards:
                if block.start < g.end and g.start < block.end:
                    violations.append(
                        Violation(
                            "guard-rows",
                            f"VM {name} backing {block.start:#x}-{block.end:#x} "
                            f"overlaps guard range {g.start:#x}-{g.end:#x}",
                        )
                    )
    return violations


class FlipVerdict(NamedTuple):
    """Where one attacker's flips landed (the Table 3 classification)."""

    #: The attacker's groups the verdict was taken against.
    groups: frozenset
    #: Flips inside those groups.
    inside: list[BitFlip]
    #: Flips outside them — the quantity Table 3 shows is zero under Siloz.
    escaped: list[BitFlip]
    #: Other VM name -> flips that corrupted its current backing, in
    #: order of first corruption.
    victim_flips: dict[str, int]


def classify_flips(
    hv: Hypervisor, attacker: VirtualMachine, flips: Iterable[BitFlip]
) -> FlipVerdict:
    """Classify *flips* relative to *attacker*: inside or outside its
    groups, and which other tenants they corrupted.

    Groups are the attacker's reserved groups, or — for the baseline,
    which reserves nothing — the groups its backing actually occupies,
    so the same query is meaningful there.  Flips are accounted in the
    *managed* geometry's group units.

    Every flip in media row *row* lies in that row's row group, one
    contiguous HPA range, so ownership is looked up once per
    ``(socket, row)``.  Only a row group that other tenants own in part
    (buddy blocks split it on a shared pool) is resolved per flip, from
    the HPA of the cache line holding the flipped bit.
    """
    groups = frozenset(attacker.reserved_groups) or frozenset(
        hv.groups_of_vm(attacker)
    )
    rows_per_subarray = getattr(hv, "managed_geom", hv.machine.geom).rows_per_subarray
    geom = hv.machine.geom
    mapping = hv.machine.mapping
    others = [
        (name, vm)
        for name, vm in hv.vms.items()
        if name != attacker.name and vm.state is VmState.RUNNING
    ]
    verdict = FlipVerdict(groups, [], [], {})
    victim_flips = verdict.victim_flips
    # (socket, row) -> (inside the attacker's groups, row owner); local
    # to this call, since tenants come and go between calls.
    rows: dict[tuple[int, int], tuple[bool, object]] = {}
    for flip in flips:
        key = (flip.socket, flip.row)
        cached = rows.get(key)
        if cached is None:
            (span,) = mapping.row_group_ranges(flip.socket, flip.row)
            cached = rows[key] = (
                (flip.socket, flip.row // rows_per_subarray) in groups,
                _row_owner(span, others),
            )
        inside, owner = cached
        (verdict.inside if inside else verdict.escaped).append(flip)
        if owner is None:
            continue
        if owner is not _MIXED:
            victim_flips[owner] = victim_flips.get(owner, 0) + 1
            continue
        # The flip's HPA: the cache line holding the flipped bit.
        hpa = mapping.encode(
            MediaAddress.from_socket_bank(
                geom, flip.socket, flip.bank, flip.row, (flip.bit // 8 // 64) * 64
            )
        )
        for name, vm in others:
            if vm.owns_hpa(hpa):
                victim_flips[name] = victim_flips.get(name, 0) + 1
    return verdict


#: Row owner of a row group that other tenants own only in part.
_MIXED = object()


def _row_owner(
    span: AddressRange, others: list[tuple[str, VirtualMachine]]
) -> object:
    """Who owns HPA range *span* among *others*: the one tenant whose
    backing (mediated or not) covers all of it, ``None`` when no tenant
    touches it, or ``_MIXED`` when ownership varies within it."""
    owner = None
    for name, vm in others:
        pieces = sorted(
            (max(r.start, span.start), min(r.end, span.end))
            for r in (*vm.backing, *vm.mediated_backing)
            if r.start < span.end and span.start < r.end
        )
        if not pieces:
            continue
        if owner is not None:
            return _MIXED  # a second tenant overlaps the range
        covered = span.start
        for start, end in pieces:
            if start > covered:
                return _MIXED  # a gap: part of the range is not this tenant's
            covered = max(covered, end)
        if covered < span.end:
            return _MIXED
        owner = name
    return owner
