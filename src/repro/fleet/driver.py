"""The per-host task of a fleet campaign: what one worker runs.

:class:`~repro.fleet.cluster.ClusterCampaign` admits every arrival
fleet-wide, then hands each host to a supervised worker as a picklable
:class:`HostTask`.  :func:`run_host_task` boots the host, replays its
admitted VMs in placement order, applies its shard-phase chaos (worker
deaths, host crashes, UE storms), runs the scenario, and ends with
:meth:`Host.assert_isolation <repro.fleet.host.Host.assert_isolation>`
— the mitigation's full audit, guard rows included — so a campaign
admitted against logical twins still gets a real audit of every host.
A task is a pure function of ``(HostTask, attempt)``: the host's DRAM
seed derives from the *host id*
(:func:`~repro.fleet.host.derive_host_seed`), never from worker count or
pool order, so ``--workers 4`` merges bit-identically with
``--workers 1`` — chaos plan and all.
"""

from __future__ import annotations

import hashlib
import traceback
from dataclasses import dataclass

from repro import obs
from repro.chaos.plan import ChaosKind, ChaosSpec
from repro.chaos.supervisor import WorkerDeathError
from repro.errors import FleetError
from repro.hv.hypervisor import VmSpec
from repro.mm.numa import NodeKind

from repro.fleet.host import Host, HostSpec, derive_host_seed

#: Scenarios a campaign can run on every host.
SCENARIOS = ("attack", "health")


@dataclass(frozen=True)
class HostTask:
    """Everything one worker needs to re-create and drive one host."""

    spec: HostSpec
    vm_specs: tuple[VmSpec, ...]
    scenario: str
    budget: int
    storm_errors: int
    #: Shard-phase chaos events for this host, in trigger order.
    chaos: tuple[ChaosSpec, ...] = ()


def _attack_result(host: Host, task: HostTask) -> dict:
    """Table 3-style containment campaign from the host's first tenant."""
    from repro.attack.runner import first_tenant_attack

    payload, outcome = first_tenant_attack(
        host.hv, seed=task.spec.seed, pattern_budget=task.budget
    )
    if outcome is not None:
        payload["summary"] = outcome.summary()
        payload["victims"] = len(outcome.victim_flips)
    return payload


def _health_result(host: Host, task: HostTask) -> dict:
    """CE-storm drill: inject, let the monitor escalate, record the
    escalation transcript digest (backend-independent, PR 1)."""
    from repro.faults import run_ecc_storm
    from repro.hv.health import HealthState

    vms = list(host.hv.vms.values())
    if not vms:
        return {"idle": True, "offlined": False, "migrated_blocks": 0}
    dram = host.hv.machine.dram
    socket, bank, _channel, row, _col = dram.mapping.decode_flat(vms[0].backing[0].start)
    run_ecc_storm(
        dram,
        host.monitor,
        socket,
        bank,
        row,
        errors=task.storm_errors,
        seed=task.spec.seed,
    )
    timeline = "\n".join(host.monitor.timeline)
    return {
        "idle": False,
        "target": [socket, row],
        "offlined": host.monitor.state_of(socket, row)
        is HealthState.OFFLINED,
        "migrated_blocks": sum(len(r.migrated) for r in host.monitor.reports),
        "deferred_blocks": sum(len(r.deferred) for r in host.monitor.reports),
        "timeline_digest": hashlib.sha256(timeline.encode()).hexdigest(),
    }


def _free_storm_target(host: Host) -> tuple[int, int, int]:
    """(socket, bank, row) of a guest-reserved row group with nothing
    allocated on it — the UE storm's blast radius must not cover live
    tenant data (a UE under tenant pages is the *migration* failure
    mode, modelled separately; this one is the dying-DIMM mode where
    the monitor must retire the row group while isolation holds)."""
    hv = host.hv
    geom = hv.machine.geom
    mapping = hv.machine.mapping
    for node in hv.topology.nodes_of_kind(NodeKind.GUEST_RESERVED):
        for row in range(geom.rows_per_bank):
            rg = mapping.row_group_ranges(0, row)[0]
            inside = any(
                rg.start >= r.start and rg.end <= r.end for r in node.ranges
            )
            if (
                inside
                and not node.allocator.allocated_blocks_within(rg)
                and not hv.offline.is_offline(rg.start)
            ):
                socket, bank, _channel, row, _col = mapping.decode_flat(rg.start)
                return socket, bank, row
    return 0, 0, 0


def _apply_ue_storm(host: Host, spec: ChaosSpec) -> dict:
    """Inject a DIMM UE storm (two-bit words, uncorrectable) on a free
    row group and let the health monitor escalate through its
    ``ue_weight`` ladder; returns the deterministic aftermath."""
    from repro.faults import run_ecc_storm

    socket, bank, row = _free_storm_target(host)
    run_ecc_storm(
        host.hv.machine.dram,
        host.monitor,
        socket,
        bank,
        row,
        errors=spec.ue_errors,
        seed=host.spec.seed,
        uncorrectable=True,
    )
    return {
        "chaos": "ue-storm",
        "target": [socket, row],
        "ue_errors": spec.ue_errors,
        "state": host.monitor.state_of(socket, row).value,
        "health": host.monitor.snapshot(),
    }


def warm_worker() -> None:
    """Pooled-worker warmup: pre-touch the state every host task needs.

    Booting one throwaway host populates the process-wide caches the
    real shards hit — the memoized Skylake decode tables, the lazy
    geometry LUTs, the import graph — so the first real task on a
    persistent worker runs as warm as the hundredth.  Best-effort: a
    failure here only costs the warmth.
    """
    from repro.fleet.host import Host, HostSpec

    Host.boot(HostSpec(host_id=0, seed=0))


def _counter_mark() -> dict[str, float] | None:
    """Metrics-counter snapshot, or None while observability is off."""
    if not obs.ENABLED:
        return None
    return dict(obs.metrics_snapshot()["counters"])


def _trace_summary(before: dict[str, float]) -> dict:
    """Compact merged trace summary for one host task.

    Workers never ship their event streams back to the driver (a fleet
    host emits thousands of ACT/TRR/ECC events; at cluster scale that
    is the dominant IPC cost).  Instead each shard returns the per-kind
    counter *deltas* its simulation folded into ``repro.obs`` — exact
    even when the ring buffer dropped events, a few hundred bytes flat.
    Execution-detail only: the merge digest scrubs this section.
    """
    after = obs.metrics_snapshot()["counters"]
    merged = {
        name: round(value - before.get(name, 0.0), 6)
        for name, value in sorted(after.items())
        if value != before.get(name, 0.0)
    }
    return {"merged_counters": merged, "events": "sampled"}


def boot_host(task: HostTask) -> Host:
    """Boot the task's host and replay its admitted VMs in placement
    order: the real placement the twins admitted against."""
    host = Host.boot(task.spec)
    for spec in task.vm_specs:
        host.create_vm(spec)
    return host


def run_host_task(task: HostTask, attempt: int = 1) -> dict:
    """Worker entry point: boot the host, replay its placements, apply
    the shard's chaos events, run the scenario.  **Pure** in
    ``(task, attempt)`` — same inputs, same result dict, in any process.
    Exceptions become a typed error result (graceful worker failure:
    one sick host must not kill the campaign) — except a planned
    :class:`WorkerDeathError`, which must escape so the supervisor's
    dead-worker handling is what gets exercised."""
    mark = _counter_mark()
    try:
        host = boot_host(task)
        chaos_notes: list[dict] = []
        for spec in task.chaos:
            dram = host.hv.machine.dram
            if spec.at_clock > dram.clock:
                dram.advance_time(spec.at_clock - dram.clock)
            if spec.kind is ChaosKind.WORKER_DEATH:
                if attempt <= spec.kills:
                    raise WorkerDeathError(
                        f"chaos: worker death on host {task.spec.host_id} "
                        f"(attempt {attempt}/{spec.kills} kill(s))"
                    )
                chaos_notes.append(
                    {"chaos": "worker-death", "kills": spec.kills}
                )
            elif spec.kind is ChaosKind.HOST_CRASH:
                return {
                    "host_id": task.spec.host_id,
                    "ok": False,
                    "crashed": True,
                    "seed": task.spec.seed,
                    "vms": [s.name for s in task.vm_specs],
                    "placed_bytes": 0,
                    "error": f"chaos: host crash at t={spec.at_clock:.6f}",
                }
            elif spec.kind is ChaosKind.UE_STORM:
                chaos_notes.append(_apply_ue_storm(host, spec))
        if task.scenario == "attack":
            payload = _attack_result(host, task)
        elif task.scenario == "health":
            payload = _health_result(host, task)
        else:
            raise FleetError(f"unknown scenario {task.scenario!r}")
        host.assert_isolation()
        result = {
            "host_id": task.spec.host_id,
            "ok": True,
            "seed": task.spec.seed,
            "vms": [s.name for s in task.vm_specs],
            "placed_bytes": sum(s.memory_bytes for s in task.vm_specs),
            "scenario": task.scenario,
            "mitigation": host.mitigation.host_report(host),
            **payload,
        }
        if chaos_notes:
            result["chaos"] = chaos_notes
        if mark is not None:
            result["trace"] = _trace_summary(mark)
        return result
    except WorkerDeathError:
        raise  # the supervisor, not the error path, owns this one
    except Exception as exc:  # noqa: BLE001 — workers must not die silently
        return {
            "host_id": task.spec.host_id,
            "ok": False,
            "vms": [s.name for s in task.vm_specs],
            "placed_bytes": 0,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }


__all__ = [
    "HostTask",
    "SCENARIOS",
    "boot_host",
    "derive_host_seed",
    "run_host_task",
]
