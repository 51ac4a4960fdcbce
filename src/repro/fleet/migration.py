"""Cross-host live migration and degraded-host evacuation.

Within one host, PR 1's :func:`~repro.core.remediation.offline_row_group_live`
migrates backing blocks *inside* a VM's own reservation.  Some blocks
cannot move that way — EPT table pages (interior tree pointers), or a
reservation so full no replacement frames exist — and the row group is
parked as *deferred*: quarantined but not retired.  The fleet-level
remedy is the cloud one: **evacuate the tenant to another host**, which
frees every frame the VM pinned (data pages and EPT tables alike), then
retry the deferred offlining, which now completes.

:func:`migrate_vm` implements the move with the same semantics
``core.remediation`` holds per-block: data is read through ECC (healing
correctable errors into the copy), the VM is re-created on the
destination from its recorded :class:`VmSpec` — so the destination's
own Siloz placement puts it in private subarray groups — every byte is
copied and verified, and the isolation invariant is asserted on **both**
hosts before the source reservation is released.  A failure at any
point before the destination copy is verified leaves the source VM
running and untouched.

Snapshot, restore and digest all iterate
:meth:`~repro.hv.vm.VirtualMachine.extents`, the same guest-physical
walk the EPT is built from.  A VM's backing lists stay in guest-physical
order through live remediation, so the copy lands every guest page at
the same gpa on the destination, and the digests compare guest-order
contents on both sides.

:func:`evacuate_host` is the one evacuation loop (rank, migrate, log);
after it drains a degraded host, the host's
:meth:`~repro.hv.health.HealthMonitor.retry_deferred` completes the
parked offlinings.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

from repro import obs
from repro.errors import FleetError, PlacementError, UncorrectableError
from repro.hv.vm import VirtualMachine, VmState
from repro.log import get_logger

from repro.fleet.host import Fleet, Host
from repro.fleet.scheduler import PlacementScheduler

_log = get_logger("fleet.migration")


class MigrationError(FleetError):
    """Cross-host migration could not complete (source left untouched)."""


@dataclass(frozen=True)
class MigrationRecord:
    """One completed cross-host move."""

    vm: str
    src_host: int
    dst_host: int
    bytes_copied: int
    verified: bool


def _snapshot_regions(host: Host, vm: VirtualMachine) -> dict[str, bytearray]:
    """region name -> full contents, read through ECC (CEs heal into
    the copy; an uncorrectable word aborts the whole migration)."""
    dram = host.hv.machine.dram
    regions = {r.name: r for r in vm.regions}
    buffers: dict[str, bytearray] = {}
    for name, gpa, hpa, size in vm.extents():
        buf = buffers.setdefault(name, bytearray(regions[name].size))
        offset = gpa - regions[name].gpa
        try:
            buf[offset:offset + size] = dram.read_region(hpa, size)
        except UncorrectableError as exc:
            raise MigrationError(
                f"VM {vm.name!r} has uncorrectable data at hpa {hpa:#x}; "
                f"cannot migrate: {exc}"
            ) from exc
    return buffers


def _restore_regions(host: Host, vm: VirtualMachine, buffers: dict[str, bytearray]) -> int:
    """Write snapshotted contents into the destination VM's frames."""
    dram = host.hv.machine.dram
    regions = {r.name: r for r in vm.regions}
    copied = 0
    for name, gpa, hpa, size in vm.extents():
        offset = gpa - regions[name].gpa
        dram.write(hpa, bytes(buffers[name][offset:offset + size]))
        copied += size
    return copied


def _digest(host: Host, vm: VirtualMachine) -> str:
    """Content digest over every extent, in guest-physical order
    (verification)."""
    dram = host.hv.machine.dram
    h = hashlib.sha256()
    for _name, _gpa, hpa, size in vm.extents():
        h.update(dram.read_region(hpa, size))
    return h.hexdigest()


def migrate_vm(
    src: Host,
    dst: Host,
    name: str,
    *,
    corrupt: Callable[[dict[str, bytearray]], None] | None = None,
) -> MigrationRecord:
    """Move VM *name* from *src* to *dst*; see the module docstring.

    Raises :class:`MigrationError` (source untouched) when the VM is not
    migratable or the destination cannot place it; propagates
    non-capacity :class:`PlacementError` as bugs.

    *corrupt*, when given, is a chaos hook invoked on the in-flight
    snapshot buffers **after** the source digest is taken — modelling a
    transfer-path bit flip.  The destination copy then fails sha256
    verification, the destination VM is rolled back, and the source
    keeps serving untouched: exactly the failure-containment contract
    the digest-corruption chaos tests pin down.
    """
    if src.host_id == dst.host_id:
        raise MigrationError(f"VM {name!r}: source and destination are host {src.host_id}")
    vm = src.hv.vm(name)
    if vm.state is not VmState.RUNNING:
        raise MigrationError(f"VM {name!r} is not running")
    if vm.devices:
        # Passthrough DMA cannot be paused mid-flight in this model.
        raise MigrationError(
            f"VM {name!r} has {len(vm.devices)} passthrough device(s) attached"
        )
    spec = src.vm_specs.get(name)
    if spec is None:
        raise MigrationError(f"VM {name!r} has no recorded spec on host {src.host_id}")

    buffers = _snapshot_regions(src, vm)
    source_digest = _digest(src, vm)
    if corrupt is not None:
        corrupt(buffers)
    try:
        new_vm = dst.create_vm(spec)
    except PlacementError as exc:
        if not exc.is_capacity:
            raise
        raise MigrationError(
            f"destination host {dst.host_id} cannot place VM {name!r}: {exc}"
        ) from exc
    copied = _restore_regions(dst, new_vm, buffers)
    verified = _digest(dst, new_vm) == source_digest
    if not verified:
        # Roll the destination back; the source copy is still authoritative.
        dst.remove_vm(name)
        raise MigrationError(f"VM {name!r}: destination copy failed verification")

    src.remove_vm(name)
    src.assert_isolation()
    dst.assert_isolation()
    record = MigrationRecord(
        vm=name,
        src_host=src.host_id,
        dst_host=dst.host_id,
        bytes_copied=copied,
        verified=True,
    )
    _log.info(
        "migrated VM %s: host %d -> host %d (%d bytes)",
        name, src.host_id, dst.host_id, copied,
    )
    if obs.ENABLED:
        obs.emit(
            obs.VmMigrationEvent(
                vm=name,
                src_host=src.host_id,
                dst_host=dst.host_id,
                bytes=copied,
                when=dst.hv.machine.dram.clock,
            )
        )
    return record


def evacuate_host(
    fleet: Fleet,
    host: Host,
    scheduler: PlacementScheduler,
    *,
    exclude: tuple[int, ...] = (),
    corrupt: Callable[[dict[str, bytearray]], None] | None = None,
) -> tuple[list[MigrationRecord], list[dict]]:
    """Drain every VM off one (crashed) host onto scheduler-chosen
    survivors; returns ``(records, incidents)``.

    VMs move in placement order; *exclude* lists host ids that must not
    receive tenants (the other crashed hosts).  *corrupt* is a one-shot
    chaos hook threaded into :func:`migrate_vm`: when the armed
    migration fails digest verification it is **retried once** without
    the transfer fault (the copy loop re-reads the authoritative source)
    and an incident dict records the detected-and-rolled-back
    corruption.  A VM with no viable destination is left in place with
    an incident — graceful degradation, never a dead campaign.
    """
    records: list[MigrationRecord] = []
    incidents: list[dict] = []
    for name in list(host.vm_specs):
        spec = host.vm_specs[name]
        candidates = scheduler.rank(
            fleet, spec, exclude=(host.host_id, *exclude)
        )
        if not candidates:
            _log.warning(
                "evacuation: no destination for VM %s on host %d",
                name, host.host_id,
            )
            incidents.append(
                {"incident": "no-destination", "host": host.host_id, "vm": name}
            )
            continue
        try:
            records.append(
                migrate_vm(host, candidates[0], name, corrupt=corrupt)
            )
        except MigrationError as exc:
            if corrupt is not None and "verification" in str(exc):
                # The armed transfer fault fired; verification caught it
                # and rolled the destination back.  Record the incident
                # and re-run the copy clean (the hook is one-shot).
                corrupt = None
                incidents.append(
                    {
                        "incident": "digest-corruption-rollback",
                        "host": host.host_id,
                        "vm": name,
                        "detail": str(exc),
                    }
                )
                try:
                    records.append(migrate_vm(host, candidates[0], name))
                    continue
                except MigrationError as retry_exc:
                    exc = retry_exc
            _log.warning("evacuation of %s failed: %s", name, exc)
            incidents.append(
                {
                    "incident": "migration-failed",
                    "host": host.host_id,
                    "vm": name,
                    "detail": str(exc),
                }
            )
    return records, incidents

