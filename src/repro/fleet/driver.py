"""The fleet campaign driver: place fleet-wide, simulate per host, in
parallel, deterministically — and survivably, under injected chaos.

A :class:`FleetCampaign` runs in three phases:

1. **Placement** (main process): boot the fleet, generate the seeded
   tenant arrival trace, and push it through admission control + the
   chosen scheduler.  Every host ends up with an ordered list of
   admitted :class:`VmSpec`\\ s.  A chaos plan's queue-stall events
   fire here: the admission daemon wedges for a window of arrivals and
   backpressure must reject instead of blocking.
2. **Campaign** (supervised workers): each host's simulation — boot,
   replay its placements, apply its shard-phase chaos events, run the
   scenario — is sharded across worker processes under a
   :class:`~repro.chaos.supervisor.CampaignSupervisor`: per-shard
   timeout, bounded retries with backoff, and real dead-worker
   detection (a killed worker used to kill the whole ``pool.map``
   campaign).  A host task is a pure function of ``(HostSpec, vm
   specs, scenario, chaos specs, attempt)``: the host's DRAM seed
   derives from the *host id* (:func:`~repro.fleet.host.derive_host_seed`),
   never from worker count or pool order, so ``--workers 4`` merges
   bit-identically with ``--workers 1`` — chaos plan and all.
   Completed shards are checkpointed to an optional
   :class:`~repro.chaos.journal.CampaignJournal`, and ``--resume``
   loads them back instead of re-running.
3. **Merge** (main process): crashed hosts' tenants are evacuated to
   survivors (digest-corruption chaos bites here and must roll back),
   the :class:`~repro.chaos.audit.IsolationAuditor` re-verifies the
   one-tenant-per-group and guard-row invariants after placement,
   after every evacuation, and at campaign end, and results are
   ordered by host id and folded into a
   :class:`~repro.fleet.report.FleetReport` whose digest is the
   determinism contract CI checks.
"""

from __future__ import annotations

import hashlib
import traceback
from dataclasses import dataclass

from repro import obs
from repro.chaos.plan import ChaosKind, ChaosPlan, ChaosSpec
from repro.chaos.supervisor import WorkerDeathError
from repro.errors import FleetError
from repro.hv.hypervisor import VmSpec
from repro.log import get_logger
from repro.mm.numa import NodeKind

from repro.fleet.admission import AdmissionController, generate_arrival_trace
from repro.fleet.host import Fleet, Host, HostSpec, derive_host_seed
from repro.fleet.report import FleetReport, _config_dict
from repro.fleet.scheduler import make_scheduler

_log = get_logger("fleet.driver")

#: Scenarios a campaign can run on every host.
SCENARIOS = ("attack", "health")


@dataclass(frozen=True)
class CampaignConfig:
    """One fleet campaign, fully described (and picklable)."""

    hosts: int = 4
    vms: int = 12
    policy: str = "best-fit"
    scenario: str = "attack"
    backend: str = "scalar"
    seed: int = 0
    workers: int = 1
    #: Attack-scenario fuzzer patterns per host.
    budget: int = 6
    #: Health-scenario injected correctable errors per host.
    storm_errors: int = 20
    sockets: int = 1
    queue_depth: int = 64
    max_retries: int = 2
    vm_sizes_mib: tuple[int, ...] = (1, 2, 2, 3, 4)
    #: Registered mitigation every host boots under ("siloz", "none",
    #: "para", "catt", "domain-buddy", "guard-rows").  The bake-off
    #: harness sweeps this; part of the merge digest because the defence
    #: legitimately changes results.
    mitigation: str = "siloz"
    #: Chaos: seed for the generated :class:`ChaosPlan` (None = no chaos)
    #: and how many events the plan schedules.  Part of the config — and
    #: of the merge digest — because chaos legitimately changes results;
    #: resume re-derives the identical plan from these two fields.
    chaos_seed: int | None = None
    chaos_events: int = 4

    def __post_init__(self) -> None:
        if self.hosts <= 0 or self.vms < 0:
            raise FleetError("need at least one host and a non-negative VM count")
        if self.workers <= 0:
            raise FleetError("workers must be positive")
        if self.scenario not in SCENARIOS:
            raise FleetError(f"unknown scenario {self.scenario!r}; know {SCENARIOS}")
        if self.chaos_events < 0:
            raise FleetError("chaos_events must be non-negative")
        from repro.mitigations import mitigation_names

        if self.mitigation not in mitigation_names():
            raise FleetError(
                f"unknown mitigation {self.mitigation!r}; "
                f"know {mitigation_names()}"
            )


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
    from repro.attack import attack_from_vm

    vms = list(host.hv.vms.values())
    if not vms:
        return {"idle": True, "flips": 0, "contained": True}
    outcome = attack_from_vm(
        host.hv, vms[0], seed=task.spec.seed, pattern_budget=task.budget
    )
    return {
        "idle": False,
        "attacker": vms[0].name,
        "summary": outcome.summary(),
        "flips": len(outcome.flips_inside) + len(outcome.flips_escaped),
        "escaped": len(outcome.flips_escaped),
        "victim_flips": sum(outcome.victim_flips.values()),
        "victims": len(outcome.victim_flips),
        "contained": outcome.contained,
    }


def _health_result(host: Host, task: HostTask) -> dict:
    """CE-storm drill: inject, let the monitor escalate, record the
    escalation transcript digest (backend-independent, PR 1)."""
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.hv.health import HealthState

    vms = list(host.hv.vms.values())
    if not vms:
        return {"idle": True, "offlined": False, "migrated_blocks": 0}
    dram = host.hv.machine.dram
    geom = host.hv.machine.geom
    media = dram.mapping.decode(vms[0].backing[0].start)
    interval = 0.004
    plan = FaultPlan.ce_storm(
        media.socket,
        media.socket_bank_index(geom),
        media.row,
        errors=task.storm_errors,
        words_per_row=geom.row_bytes * 8 // 64,
        start=dram.clock + interval,
        interval=interval,
        seed=task.spec.seed,
    )
    injector = FaultInjector(dram, plan).attach()
    for _ in range(task.storm_errors + 2):
        dram.advance_time(interval)
        dram.patrol_scrub()
    host.monitor.poll()
    injector.detach()
    timeline = "\n".join(host.monitor.timeline)
    return {
        "idle": False,
        "target": [media.socket, media.row],
        "offlined": host.monitor.state_of(media.socket, media.row)
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
                media = mapping.decode(rg.start)
                return media.socket, media.socket_bank_index(geom), media.row
    return 0, 0, 0


def _apply_ue_storm(host: Host, spec: ChaosSpec) -> dict:
    """Inject a DIMM UE storm (two-bit words, uncorrectable) on a free
    row group and let the health monitor escalate through its
    ``ue_weight`` ladder; returns the deterministic aftermath."""
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan

    dram = host.hv.machine.dram
    geom = host.hv.machine.geom
    socket, bank, row = _free_storm_target(host)
    interval = 0.004
    plan = FaultPlan.ue_storm(
        socket,
        bank,
        row,
        errors=spec.ue_errors,
        words_per_row=geom.row_bytes * 8 // 64,
        start=dram.clock + interval,
        interval=interval,
        seed=host.spec.seed,
    )
    injector = FaultInjector(dram, plan).attach()
    for _ in range(spec.ue_errors + 2):
        dram.advance_time(interval)
        dram.patrol_scrub()
    host.monitor.poll()
    injector.detach()
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
        host = Host.boot(task.spec)
        for spec in task.vm_specs:
            host.create_vm(spec)
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


class FleetCampaign:
    """Placement + supervised per-host simulation + deterministic merge."""

    def __init__(self, config: CampaignConfig):
        #: Host tasks run serially (``workers=1``) or on the shared
        #: persistent worker pool; the execution path is never part of
        #: the config, so journals, golden fixtures and merge digests
        #: are independent of it by construction.
        self.config = config
        self.fleet: Fleet | None = None
        self.admission: AdmissionController | None = None
        self._chaos_plan: ChaosPlan | None = None
        #: Shards loaded from a resume journal instead of re-executed.
        self.resumed_shards: int = 0

    # ------------------------------------------------------------------
    # Chaos plan (pure function of the config; resume re-derives it)
    # ------------------------------------------------------------------

    @property
    def chaos_plan(self) -> ChaosPlan | None:
        if self.config.chaos_seed is None:
            return None
        if self._chaos_plan is None:
            self._chaos_plan = ChaosPlan.generate(
                self.config.chaos_seed,
                self.config.hosts,
                events=self.config.chaos_events,
                arrivals=self.config.vms,
            )
        return self._chaos_plan

    def config_digest(self) -> str:
        """Campaign identity for journal headers (see chaos.journal)."""
        from repro.chaos.journal import config_digest

        return config_digest(_config_dict(self.config))

    # ------------------------------------------------------------------
    # Phase 1: placement
    # ------------------------------------------------------------------

    def place(self) -> Fleet:
        """Boot the fleet and drive the arrival trace through admission.

        Queue-stall chaos fires here: at the planned arrival index the
        admission daemon wedges (simulated time passes, nothing drains)
        for a window of arrivals, during which a full queue's rejection
        is final — backpressure instead of blocking.
        """
        cfg = self.config
        self.fleet = Fleet.boot(
            cfg.hosts,
            seed=cfg.seed,
            sockets=cfg.sockets,
            backend=cfg.backend,
            mitigation=cfg.mitigation,
        )
        self.guest_capacity_bytes = sum(
            n.total_bytes
            for h in self.fleet.hosts
            for n in h.hv.topology.nodes_of_kind(NodeKind.GUEST_RESERVED)
        )
        scheduler = make_scheduler(cfg.policy)
        self.admission = AdmissionController(
            self.fleet,
            scheduler,
            queue_depth=cfg.queue_depth,
            max_retries=cfg.max_retries,
        )
        trace = generate_arrival_trace(
            cfg.seed, cfg.vms, sizes_mib=cfg.vm_sizes_mib, sockets=cfg.sockets
        )
        plan = self.chaos_plan
        stalls = (
            {s.arrival_index: s for s in plan.stalls()} if plan is not None else {}
        )
        wedged_until = -1
        for i, spec in enumerate(trace):
            stall = stalls.get(i)
            if stall is not None:
                self.admission.stall(stall.stall_s)
                wedged_until = i + stall.stall_width
                _log.warning(
                    "chaos: admission queue stalled %.4fs at arrival %d "
                    "(%d arrival(s) wedged)",
                    stall.stall_s, i, stall.stall_width,
                )
                if obs.ENABLED:
                    obs.emit(
                        obs.ChaosEvent(
                            chaos="queue-stall",
                            host=-1,
                            detail=f"arrival {i}: {stall.stall_s}s",
                        )
                    )
            if not self.admission.submit(spec):
                if i < wedged_until:
                    continue  # daemon wedged: the QUEUE_FULL stands
                # Backpressure hit: let the queue drain, then resubmit
                # once (a second full-queue rejection is final).
                self.admission.drain()
                self.admission.submit(spec)
        self.admission.drain()
        self.fleet.assert_isolation()
        return self.fleet

    # ------------------------------------------------------------------
    # Phase 2 + 3: supervised sharded simulation, deterministic merge
    # ------------------------------------------------------------------

    def tasks(self) -> list[HostTask]:
        """Picklable per-host work items: each host's spec plus its
        admitted VM specs in placement order and its shard-phase chaos."""
        if self.fleet is None:
            raise FleetError("place() must run before tasks()")
        cfg = self.config
        plan = self.chaos_plan
        return [
            HostTask(
                spec=h.spec,
                vm_specs=tuple(h.vm_specs.values()),
                scenario=cfg.scenario,
                budget=cfg.budget,
                storm_errors=cfg.storm_errors,
                chaos=plan.for_host(h.host_id) if plan is not None else (),
            )
            for h in self.fleet.hosts
        ]

    def run(
        self,
        *,
        journal_path: str | None = None,
        resume_path: str | None = None,
    ) -> FleetReport:
        """Place (if not already placed), execute every host task under
        supervision, evacuate crashed hosts, audit, and merge the
        results in host-id order into the campaign report."""
        from repro.chaos.journal import CampaignJournal
        from repro.chaos.supervisor import CampaignSupervisor

        cfg = self.config
        if self.fleet is None:
            self.place()
        auditor = self._auditor()
        audits = [auditor.audit("placement").to_dict()]
        tasks = self.tasks()

        completed: dict[int, dict] = {}
        if resume_path is not None:
            completed = CampaignJournal.load(resume_path, self.config_digest())
            self.resumed_shards = len(completed)
            _log.info(
                "resume: loaded %d completed shard(s) from %s",
                len(completed), resume_path,
            )
        pending = [t for t in tasks if t.spec.host_id not in completed]

        journal: CampaignJournal | None = None
        if journal_path is not None or resume_path is not None:
            journal = CampaignJournal(journal_path or resume_path)
            journal.open(self.config_digest())
        try:
            supervisor = CampaignSupervisor(run_host_task, warmup=warm_worker)
            results, supervision = supervisor.run(
                pending,
                cfg.workers,
                on_result=journal.record if journal is not None else None,
            )
        finally:
            if journal is not None:
                journal.close()
        all_results = sorted(
            [*completed.values(), *results], key=lambda r: r["host_id"]
        )

        degraded, migrations = self._handle_crashes(all_results, auditor, audits)
        audits.append(auditor.audit("final").to_dict())
        assert self.admission is not None
        report = FleetReport.build(
            config=cfg,
            decisions=list(self.admission.decisions),
            host_results=all_results,
            guest_capacity_bytes=self.guest_capacity_bytes,
            migrations=migrations,
            degraded=degraded,
            audit=audits,
            supervision=supervision.to_dict(),
        )
        report.fold_into_metrics()
        _log.info("fleet campaign: %s", report.headline())
        return report

    def _auditor(self):
        from repro.chaos.audit import IsolationAuditor

        assert self.fleet is not None
        return IsolationAuditor(self.fleet)

    def _handle_crashes(
        self, results: list[dict], auditor, audits: list[dict]
    ) -> tuple[dict, list[dict]]:
        """Evacuate every crashed host's tenants to survivors (the
        fleet replica in this process still holds their placements),
        arming any planned digest corruption; audits after each
        evacuation.  Returns (degraded section, migration dicts)."""
        from repro.fleet.migration import evacuate_host

        crashed = sorted(
            r["host_id"] for r in results if r.get("crashed")
        )
        if not crashed:
            return {}, []
        assert self.fleet is not None
        auditor.exclude = tuple(crashed)
        scheduler = make_scheduler(self.config.policy)
        plan = self.chaos_plan
        records: list[dict] = []
        incidents: list[dict] = []
        for host_id in crashed:
            host = self.fleet.host(host_id)
            if obs.ENABLED:
                obs.emit(
                    obs.ChaosEvent(
                        chaos="host-crash",
                        host=host_id,
                        detail=f"evacuating {len(host.vm_specs)} VM(s)",
                    )
                )
            corrupt = None
            spec = plan.corruption_for(host_id) if plan is not None else None
            if spec is not None:
                corrupt = _make_corruptor(spec.flip_offset)
                if obs.ENABLED:
                    obs.emit(
                        obs.ChaosEvent(
                            chaos="digest-corruption",
                            host=host_id,
                            detail=f"armed at byte {spec.flip_offset}",
                        )
                    )
            moved, incs = evacuate_host(
                self.fleet,
                host,
                scheduler,
                exclude=tuple(h for h in crashed if h != host_id),
                corrupt=corrupt,
            )
            records.extend(
                {
                    "vm": r.vm,
                    "src_host": r.src_host,
                    "dst_host": r.dst_host,
                    "bytes_copied": r.bytes_copied,
                    "verified": r.verified,
                }
                for r in moved
            )
            incidents.extend(incs)
            audits.append(
                auditor.audit(f"evacuation:host{host_id}").to_dict()
            )
        degraded = {
            "crashed_hosts": crashed,
            "evacuated_vms": len(records),
            "incidents": incidents,
        }
        return degraded, records


def _make_corruptor(flip_offset: int):
    """One-shot transfer-path fault: flips one byte of the first region
    buffer (sorted region order, offset modulo length) the first time a
    migration snapshot passes through, then disarms."""
    armed = {"on": True}

    def corrupt(buffers: dict) -> None:
        if not armed["on"]:
            return
        for name in sorted(buffers):
            buf = buffers[name]
            if len(buf):
                armed["on"] = False
                buf[flip_offset % len(buf)] ^= 0xFF
                return

    return corrupt


def run_campaign(config: CampaignConfig) -> FleetReport:
    """One-call convenience used by the CLI and the scaling bench."""
    return FleetCampaign(config).run()


__all__ = [
    "CampaignConfig",
    "FleetCampaign",
    "HostTask",
    "SCENARIOS",
    "derive_host_seed",
    "run_campaign",
    "run_host_task",
]
