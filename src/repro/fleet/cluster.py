"""Fleet campaigns: sharded admission, supervised per-host simulation
and one streaming merge, from 2 hosts to 1000 hosts / 100k VMs.

A :class:`ClusterCampaign` runs in three phases:

1. **Admission** (driver).  Hosts partition into contiguous per-shard
   ranges, each with its own bounded queue and scheduler; arrival *i*
   of the seeded trace goes to shard ``i % shards`` and is drained on
   arrival (:meth:`ClusterShard.offer`), so every arrival yields one
   decision, in arrival order, folded straight into the
   :class:`~repro.fleet.report.StreamingMerge`.  Shards admit against
   **logical capacity twins**: :class:`LogicalHost` calls the one
   placement rule every hypervisor calls
   (:func:`~repro.hv.hypervisor.choose_nodes`) over integer free bytes
   per guest node, against a shape measured from ONE real template
   boot, for every mitigation: an exclusive one reserves the chosen
   nodes whole (one tenant per domain), a shared pool gives up backing
   pages from them.  The schedulers and :class:`AdmissionController`
   run unchanged over it.
2. **Execution** (supervised workers).  Every host's
   :func:`~repro.fleet.driver.run_host_task` runs serially or on the
   persistent pool under a
   :class:`~repro.chaos.supervisor.CampaignSupervisor`; each result is
   checkpointed to an optional
   :class:`~repro.chaos.journal.CampaignJournal` and folded as it lands
   (a resume folds the journaled shards back instead of re-running
   them).  The driver never holds the decision list or the per-host
   result list.
3. **Aftermath** (driver, chaos only).  The driver boots every host
   from its task (:func:`~repro.fleet.driver.boot_host`, the workers'
   own replay), evacuates crashed hosts' tenants to survivors
   (digest-corruption chaos bites here and must roll back), and the
   :class:`~repro.chaos.audit.IsolationAuditor` audits the fleet after
   placement, after every evacuation, and at the end.

The merge digest is a pure function of the config (and chaos plan),
never of worker count, backend, or completion order; ``shards`` is
hashed, because shard boundaries change placement.

Trust but verify: twins only *admit*; every worker re-runs the real
placement (:func:`~repro.fleet.driver.boot_host`) and audits its host.
If a twin ever admits something the real hypervisor rejects, the worker
returns a typed failed-host result and the campaign reports it loudly;
``tests/test_cluster.py`` pins twin ≡ real decision for decision.

Saturation fast path: capacity is monotone during admission (no VM ever
leaves), so once a request needing ``N`` bytes exhausts its retries in a
shard, every later request needing ``>= N`` bytes there must fail the
same way.  The shard records ``min_failed_needed`` and synthesizes the
*identical* retries-exhausted decision without re-scanning — that turns
the ~90k post-saturation arrivals of a 100k-VM trace into O(1) each
(``tests/test_cluster.py`` asserts the bypass is bit-equivalent to the
scanned path).
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

from repro import obs
from repro.chaos.plan import ChaosPlan
from repro.errors import FleetError
from repro.hv.hypervisor import VmSpec, admission_bytes, choose_nodes
from repro.log import get_logger
from repro.mm.numa import NodeKind

from repro.fleet.admission import (
    AdmissionController,
    AdmissionDecision,
    RejectReason,
    check_fleet_fields,
    iter_arrival_trace,
)
from repro.fleet.driver import SCENARIOS, HostTask, boot_host
from repro.fleet.driver import run_host_task, warm_worker
from repro.fleet.host import Fleet, Host, HostSpec, derive_host_seed
from repro.fleet.report import StreamingMerge, _config_dict
from repro.fleet.scheduler import make_scheduler

_log = get_logger("fleet.cluster")


@dataclass(frozen=True)
class ClusterConfig:
    """One fleet campaign, fully described (and picklable).

    Every field is hashed into the merge digest and journal header
    except ``workers`` and ``backend``: those are *how* the campaign
    runs, never *what* it computes.  ``shards`` is hashed — shard
    boundaries change placement.
    """

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
    #: Registered mitigation every host boots under; the bake-off
    #: sweeps it.
    mitigation: str = "siloz"
    #: Admission shards (contiguous host ranges, arrival i -> i % shards).
    shards: int = 1

    def __post_init__(self) -> None:
        check_fleet_fields(self)
        if self.vms < 0:
            raise FleetError("vms must be non-negative")
        for name in ("workers", "budget", "storm_errors"):
            if getattr(self, name) <= 0:
                raise FleetError(f"{name} must be positive")
        if self.scenario not in SCENARIOS:
            raise FleetError(
                f"unknown scenario {self.scenario!r}; know {SCENARIOS}"
            )
        if not 0 < self.shards <= self.hosts:
            raise FleetError("shards must be in 1..hosts")


# ----------------------------------------------------------------------
# Logical capacity twins
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HostShape:
    """Capacity geometry measured from one real template boot.

    Every host in a campaign is the same machine shape (only the DRAM
    seed differs), so one boot prices them all.
    """

    backing_page_bytes: int
    sockets: int
    #: The template's guest nodes as ``(node id, socket, free bytes,
    #: total bytes)``, ascending by node id.
    nodes: tuple[tuple[int, int, int, int], ...]
    #: Whether a tenant reserves its chosen nodes whole (the template
    #: hypervisor's ``exclusive_nodes``) or draws pages from a pool.
    exclusive: bool

    @property
    def guest_capacity_bytes(self) -> int:
        return sum(free for _, _, free, _ in self.nodes)

    @classmethod
    def of(cls, hv) -> "HostShape":
        """The capacity geometry of the booted hypervisor *hv*."""
        nodes = tuple(
            sorted(
                (n.node_id, n.physical_node, n.free_bytes, n.total_bytes)
                for n in hv.topology.nodes_of_kind(NodeKind.GUEST_RESERVED)
            )
        )
        if not nodes:
            raise FleetError("template host has no guest nodes")
        return cls(
            backing_page_bytes=hv.backing_page_bytes,
            sockets=hv.machine.geom.sockets,
            nodes=nodes,
            exclusive=hv.exclusive_nodes,
        )


def measure_host_shape(
    *, sockets: int = 1, backend: str = "scalar", mitigation: str = "siloz"
) -> HostShape:
    """Boot ONE real host and read the capacity geometry off it."""
    template = Host.boot(
        HostSpec(
            host_id=0,
            seed=0,
            sockets=sockets,
            backend=backend,
            mitigation=mitigation,
        )
    )
    return HostShape.of(template.hv)


def _logical_hv(shape: HostShape) -> SimpleNamespace:
    """The ``host.hv.*`` slice schedulers and admission touch.  Twins
    keep no clock (the real clocks live in the workers), so admission
    backoff's ``dram.advance_time`` is a no-op."""
    return SimpleNamespace(
        backing_page_bytes=shape.backing_page_bytes,
        machine=SimpleNamespace(
            geom=SimpleNamespace(sockets=shape.sockets),
            dram=SimpleNamespace(advance_time=lambda seconds: None),
        ),
    )


@dataclass(frozen=True)
class _LogicalCapacity:
    """Duck-typed :class:`~repro.hv.hypervisor.CapacitySnapshot` slice."""

    free_guest_node_ids: tuple[int, ...]
    free_guest_bytes: int
    total_guest_nodes: int
    vm_count: int


class _FreeGroups:
    """A shard's running count of guest nodes a new tenant may still be
    placed on.  The twin fleet and each of its twins share one, so a
    twin need not point back at the fleet that holds it (that pair
    would be a reference cycle)."""

    __slots__ = ("count",)

    def __init__(self, count: int) -> None:
        self.count = count


class LogicalHost:
    """Integer-bookkeeping twin of one unbooted fleet host.

    Tracks free bytes per guest node and admits by the same rule every
    hypervisor's ``_place_vm`` calls,
    :func:`~repro.hv.hypervisor.choose_nodes`, over that free list (a
    node an exclusive tenant reserved holds 0).  It keeps only the
    bookkeeping that follows the choice: an exclusive mitigation
    reserves the chosen nodes whole (one tenant per domain, even when
    partially used); a shared pool gives up the backing pages
    ``Hypervisor._mmap`` draws for RAM + ROM, from the chosen pools in
    order.  Workers re-verify every admission against the real
    hypervisor.
    """

    __slots__ = ("spec", "shape", "hv", "groups", "ids", "free", "open_ids", "vm_specs")

    def __init__(self, spec: HostSpec, shape: HostShape, hv: SimpleNamespace,
                 groups: _FreeGroups):
        self.spec = spec
        self.shape = shape
        self.hv = hv
        #: The shard's free-node count, shared with its twin fleet.
        self.groups = groups
        #: Guest node ids, in ``shape.nodes`` order.
        self.ids = tuple(node_id for node_id, _, _, _ in shape.nodes)
        #: Placeable free bytes per guest node, in ``shape.nodes`` order
        #: (0 once an exclusive tenant reserves the node).
        self.free = [free for _, _, free, _ in shape.nodes]
        #: Guest node ids no tenant reserves, in ``shape.nodes`` order —
        #: every node on a shared pool, and empty nodes too: the ids the
        #: real hypervisor's capacity lists as free.
        self.open_ids = self.ids
        #: Admitted VmSpecs in placement order (replayed by workers).
        self.vm_specs: dict[str, VmSpec] = {}

    @property
    def host_id(self) -> int:
        return self.spec.host_id

    def capacity(self) -> _LogicalCapacity:
        """A capacity snapshot shaped like the real hypervisor's."""
        return _LogicalCapacity(
            free_guest_node_ids=self.open_ids,
            free_guest_bytes=sum(self.free),
            total_guest_nodes=len(self.ids),
            vm_count=len(self.vm_specs),
        )

    def create_vm(self, spec: VmSpec) -> None:
        """Take capacity for *spec*, or raise the typed capacity
        ``PlacementError`` :func:`~repro.hv.hypervisor.choose_nodes`
        raises on a real host."""
        shape = self.shape
        page = shape.backing_page_bytes
        chosen_ids = choose_nodes(
            [(n[0], n[1], free, n[3]) for n, free in zip(shape.nodes, self.free)],
            spec,
            page,
        )
        chosen = [self.ids.index(node_id) for node_id in chosen_ids]
        if shape.exclusive:
            for i in chosen:
                self.free[i] = 0
            self.open_ids = tuple(n for n in self.open_ids if n not in chosen_ids)
            self.groups.count -= len(chosen)
        else:
            pages = -(-(spec.memory_bytes + spec.rom_bytes) // page)
            for i in chosen:
                take = min(pages, self.free[i] // page)
                self.free[i] -= take * page
                pages -= take
        self.vm_specs[spec.name] = spec


@dataclass
class LogicalFleet:
    """Duck-typed :class:`~repro.fleet.host.Fleet` slice for one shard."""

    hosts: list[LogicalHost] = field(default_factory=list)
    #: Guest nodes a new tenant may still be placed on, over every host
    #: (a shared pool withholds none).  A running count, kept by the
    #: twins' admissions: the saturation fast path reads it for every
    #: pruned arrival.
    groups: _FreeGroups = field(default_factory=lambda: _FreeGroups(0))

    @property
    def free_groups(self) -> int:
        return self.groups.count

    @classmethod
    def build(
        cls, host_ids: range, shape: HostShape, config: ClusterConfig
    ) -> "LogicalFleet":
        hv = _logical_hv(shape)  # shared: twins are stateless through hv
        groups = _FreeGroups(len(host_ids) * len(shape.nodes))
        hosts = [
            LogicalHost(
                HostSpec(
                    host_id=i,
                    seed=derive_host_seed(config.seed, i),
                    sockets=config.sockets,
                    backend=config.backend,
                    mitigation=config.mitigation,
                ),
                shape,
                hv,
                groups,
            )
            for i in host_ids
        ]
        return cls(hosts=hosts, groups=groups)


# ----------------------------------------------------------------------
# Sharded admission
# ----------------------------------------------------------------------


class ClusterShard:
    """One admission shard: a host range, a bounded queue, a scheduler.

    ``offer`` is drain-per-arrival: each request is submitted and the
    queue drained immediately, so retries happen in place and every
    arrival yields exactly one decision, in arrival order — the
    property the streaming decision fold depends on.  The hosts are
    logical twins.
    """

    def __init__(self, shard_id: int, host_ids: range, config: ClusterConfig,
                 shape: HostShape, on_decision) -> None:
        self.shard_id = shard_id
        self.shape = shape
        self.fleet = LogicalFleet.build(host_ids, shape, config)
        self.controller = AdmissionController(
            self.fleet,  # type: ignore[arg-type] — a twin fleet
            make_scheduler(config.policy),
            queue_depth=config.queue_depth,
            max_retries=config.max_retries,
            retain_decisions=False,
            on_decision=on_decision,
        )
        #: Smallest ``needed`` bytes that ever exhausted retries here.
        #: Capacity is monotone, so >= this always fails identically.
        self.min_failed_needed: int | None = None
        #: Arrivals answered by the saturation fast path (observability).
        self.pruned = 0
        #: Arrivals still to queue undrained under a chaos queue stall.
        self.wedged = 0

    def stall(self, width: int) -> None:
        """Chaos: the shard's admission daemon wedges.  The next *width*
        arrivals are queued without draining, so a full queue's
        ``QUEUE_FULL`` is final — backpressure instead of a blocked
        arrival loop."""
        self.wedged = width

    def offer(self, spec: VmSpec) -> None:
        """Admit one arrival: submit + drain, or take the saturation
        fast path once an equal-or-smaller request has already
        exhausted its retries against this shard."""
        if self.wedged:
            self.wedged -= 1
            self.controller.submit(spec)
            return
        if self.controller.queued:
            self.controller.drain()  # a lifted stall's backlog goes first
        needed = admission_bytes(spec, self.shape.backing_page_bytes)
        if self.min_failed_needed is not None and needed >= self.min_failed_needed:
            # Saturation fast path: synthesize the decision the full
            # retry ladder would reach (attempts exhausted; shortfall
            # aggregated over the shard) without re-scanning the hosts.
            self.pruned += 1
            self.controller.record_decision(
                AdmissionDecision(
                    vm=spec.name,
                    admitted=False,
                    reason=RejectReason.RETRIES_EXHAUSTED,
                    attempts=self.controller.max_retries + 1,
                    requested_groups=1,
                    available_groups=self.fleet.free_groups,
                )
            )
            return
        self.controller.submit(spec)
        for decision in self.controller.drain():
            if (
                not decision.admitted
                and decision.reason is RejectReason.RETRIES_EXHAUSTED
            ):
                if self.min_failed_needed is None or needed < self.min_failed_needed:
                    self.min_failed_needed = needed


def shard_ranges(hosts: int, shards: int) -> list[range]:
    """Contiguous host-id ranges, sizes differing by at most one."""
    base, extra = divmod(hosts, shards)
    ranges: list[range] = []
    lo = 0
    for s in range(shards):
        hi = lo + base + (1 if s < extra else 0)
        ranges.append(range(lo, hi))
        lo = hi
    return ranges


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------


@dataclass
class ClusterReport:
    """Bounded-size outcome of one fleet campaign."""

    config: dict
    #: :meth:`StreamingMerge.summary` — includes ``merge_digest``.
    summary: dict
    #: Supervisor bookkeeping (attempts, deaths, timeouts): execution
    #: detail, never hashed.
    supervision: dict
    #: Saturation fast-path hits across all shards (execution detail).
    pruned_arrivals: int
    elapsed_s: float
    hosts_per_sec: float
    #: Driver-process peak RSS (the bounded-memory claim is about the
    #: merge path, which runs here).
    peak_rss_mib: float
    #: Chaos aftermath (crashed hosts, evacuations, incidents) and the
    #: isolation audits, in audit order; both hashed.
    degraded: dict = field(default_factory=dict)
    audit: list = field(default_factory=list)

    @property
    def merge_digest(self) -> str:
        return self.summary["merge_digest"]

    @property
    def hosts_failed(self) -> int:
        return self.summary["hosts_failed"]

    @property
    def unplanned_failures(self) -> int:
        """Failed hosts a chaos plan did not crash on purpose."""
        return self.summary["hosts_failed"] - self.summary["hosts_crashed"]

    def render_text(self) -> str:
        """Human-readable report ending with the merge digest line."""
        s = self.summary
        cfg = self.config
        lines = [
            "fleet campaign report",
            f"  {s['hosts']} host(s) in {cfg.get('shards')} shard(s), "
            f"{s['admitted']}/{s['arrivals']} admitted "
            f"({s['acceptance_rate']:.1%}), "
            f"{s['hosts_failed']} host failure(s)",
            f"  policy={cfg.get('policy')} scenario={cfg.get('scenario')} "
            f"mitigation={cfg.get('mitigation')} "
            f"backend={cfg.get('backend')} seed={cfg.get('seed')}",
            f"  throughput: {self.hosts_per_sec:.1f} hosts/sec "
            f"({self.elapsed_s:.1f}s wall, peak rss {self.peak_rss_mib:.0f} MiB, "
            f"{self.pruned_arrivals} saturation-pruned arrival(s))",
        ]
        for label, counts in (
            ("rejections", s["rejected_by_reason"]),
            ("outcomes", s["scenario_counts"]),
        ):
            if counts:
                parts = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
                lines.append(f"  {label}: {parts}")
        if self.degraded:
            crashed = self.degraded["crashed_hosts"]
            incidents = self.degraded["incidents"]
            lines.append(
                f"  degraded: {len(crashed)} crashed host(s) {crashed}, "
                f"{self.degraded['evacuated_vms']} VM(s) evacuated, "
                f"{len(incidents)} incident(s)"
            )
            lines += [
                f"    incident: {i['incident']} host {i['host']} vm {i['vm']}"
                for i in incidents
            ]
        if self.audit:
            total = sum(a["violations"] for a in self.audit)
            verdict = "clean" if total == 0 else f"{total} VIOLATION(S)"
            lines.append(f"  isolation audit: {len(self.audit)} audit(s), {verdict}")
            lines += [
                f"    {a['phase']}: {a['violations']} violation(s)"
                for a in self.audit
                if a["violations"]
            ]
        if self.supervision.get("retried"):
            lines.append(
                f"  supervision: {self.supervision['retried']} shard(s) "
                f"retried ({self.supervision.get('worker_deaths', 0)} worker "
                f"death(s), {self.supervision.get('timeouts', 0)} timeout(s))"
            )
        lines.append(f"merge digest: {self.merge_digest}")
        return "\n".join(lines)


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ClusterCampaign:
    """Sharded admission + supervised per-host simulation + streaming merge."""

    def __init__(self, config: ClusterConfig, chaos: ChaosPlan | None = None):
        #: Host tasks run serially (``workers=1``) or on the shared
        #: persistent worker pool; the execution path is never part of
        #: the merge digest or the journal identity.
        self.config = config
        #: Seeded chaos plan, or None.  Not a config field: a campaign
        #: without chaos hashes exactly its config.
        self.chaos = chaos
        self.shards: list[ClusterShard] = []
        self.fold: StreamingMerge | None = None
        #: Shards folded back from a resume journal instead of re-run.
        self.resumed_shards = 0

    def identity(self) -> dict:
        """What the merge digest and the journal header hash: the
        config, plus the chaos plan when there is one."""
        doc = _config_dict(self.config)
        if self.chaos is not None:
            doc["chaos"] = self.chaos.to_dict()
        return doc

    # -- phase 1: sharded admission -------------------------------------

    def place(self) -> StreamingMerge:
        """Stream the arrival trace through the sharded admission
        queues, folding every decision into the streaming merge.  A
        chaos queue stall wedges the shard that receives its arrival."""
        cfg = self.config
        shape = measure_host_shape(
            sockets=cfg.sockets, backend=cfg.backend, mitigation=cfg.mitigation
        )
        fold = StreamingMerge(self.identity())
        fold.guest_capacity_bytes = cfg.hosts * shape.guest_capacity_bytes
        self.shards = [
            ClusterShard(s, ids, cfg, shape, fold.add_decision)
            for s, ids in enumerate(shard_ranges(cfg.hosts, cfg.shards))
        ]
        stalls = (
            {s.arrival_index: s for s in self.chaos.stalls()}
            if self.chaos is not None
            else {}
        )
        trace = iter_arrival_trace(
            cfg.seed, cfg.vms, sizes_mib=cfg.vm_sizes_mib, sockets=cfg.sockets
        )
        n = len(self.shards)
        for i, spec in enumerate(trace):
            shard = self.shards[i % n]
            stall = stalls.get(i)
            if stall is not None:
                shard.stall(stall.stall_width)
                _log.warning(
                    "chaos: shard %d admission stalled %.4fs at arrival %d "
                    "(%d arrival(s) wedged)",
                    shard.shard_id, stall.stall_s, i, stall.stall_width,
                )
                if obs.ENABLED:
                    obs.emit(
                        obs.ChaosEvent(
                            chaos="queue-stall",
                            host=-1,
                            detail=f"arrival {i}: {stall.stall_s}s",
                        )
                    )
            shard.offer(spec)
        for shard in self.shards:
            shard.controller.drain()  # a stall that outlasted the trace
        self.fold = fold
        _log.info(
            "admission: %d/%d admitted across %d shard(s) "
            "(%d saturation-pruned)",
            fold.admitted, fold.decision_count, n, self.pruned_arrivals,
        )
        return fold

    @property
    def pruned_arrivals(self) -> int:
        return sum(s.pruned for s in self.shards)

    def tasks(self) -> list[HostTask]:
        """Every host's replay task, in host-id order across shards."""
        if self.fold is None:
            raise FleetError("place() must run before tasks()")
        cfg = self.config
        return [
            HostTask(
                spec=h.spec,
                vm_specs=tuple(h.vm_specs.values()),
                scenario=cfg.scenario,
                budget=cfg.budget,
                storm_errors=cfg.storm_errors,
                chaos=self.chaos.for_host(h.host_id) if self.chaos else (),
            )
            for shard in self.shards
            for h in shard.fleet.hosts
        ]

    # -- phases 2+3: supervised execution, aftermath, merge -------------

    def run(
        self,
        *,
        journal_path: str | None = None,
        resume_path: str | None = None,
        on_result=None,
    ) -> ClusterReport:
        """Place (if not already placed), execute every host task under
        supervision — journaling and folding each result as it lands —
        then handle the chaos aftermath and finalize the merge.

        *on_result* also sees every host result (journaled ones too).
        """
        from repro.chaos.audit import IsolationAuditor
        from repro.chaos.journal import CampaignJournal, config_digest
        from repro.chaos.supervisor import CampaignSupervisor

        cfg = self.config
        t0 = time.monotonic()
        if self.fold is None:
            self.place()
        fold = self.fold
        assert fold is not None
        tasks = self.tasks()
        crashed: list[int] = []

        def take(result: dict) -> None:
            fold.add_host_result(result)
            if result.get("crashed"):
                crashed.append(result["host_id"])
            if on_result is not None:
                on_result(result)

        identity = config_digest(self.identity())
        done: dict[int, dict] = {}
        if resume_path is not None:
            done = CampaignJournal.load(resume_path, identity)
            self.resumed_shards = len(done)
            _log.info(
                "resume: loaded %d completed shard(s) from %s",
                len(done), resume_path,
            )
            for result in done.values():
                take(result)
        journal = None
        if journal_path is not None or resume_path is not None:
            journal = CampaignJournal(journal_path or resume_path).open(identity)

        def record(result: dict) -> None:
            journal.record(result)
            take(result)

        try:
            supervisor = CampaignSupervisor(run_host_task, warmup=warm_worker)
            _, supervision = supervisor.run(
                [t for t in tasks if t.spec.host_id not in done],
                cfg.workers,
                on_result=take if journal is None else record,
                collect=False,
            )
        finally:
            if journal is not None:
                journal.close()
        degraded: dict = {}
        audits: list = []
        if self.chaos is not None:
            auditor = IsolationAuditor(Fleet([boot_host(t) for t in tasks]))
            audits.append(auditor.audit("placement").to_dict())
            degraded = self._evacuate(sorted(crashed), auditor, audits)
            audits.append(auditor.audit("final").to_dict())
        fold.set_aftermath(degraded=degraded, audit=audits)
        elapsed = time.monotonic() - t0

        summary = fold.summary()
        counts = {
            "flips": summary["flips"],
            "escaped": summary["escaped"],
            "contained_hosts": summary["contained"],
        }
        summary["scenario_counts"] = {k: v for k, v in counts.items() if v}
        report = ClusterReport(
            # The report renders the full config; the fold hashed the
            # scrubbed one (no workers/backend).
            config=self.identity(),
            summary=summary,
            supervision=supervision.to_dict(),
            pruned_arrivals=self.pruned_arrivals,
            elapsed_s=elapsed,
            hosts_per_sec=(cfg.hosts / elapsed) if elapsed > 0 else 0.0,
            peak_rss_mib=_peak_rss_mib(),
            degraded=fold.degraded,
            audit=fold.audit,
        )
        if obs.ENABLED:
            for key in ("hosts", "hosts_failed", "hosts_crashed", "acceptance_rate"):
                obs.METRICS.gauge(f"fleet.{key}").set(float(summary[key]))
        _log.info("fleet campaign: %s", report.render_text().splitlines()[1])
        return report

    def _evacuate(self, crashed: list[int], auditor, audits: list) -> dict:
        """Evacuate every crashed host's tenants to survivors (the
        auditor's fleet, booted from the host tasks, holds their
        placements), arming any planned digest corruption; folds each
        migration and audits after every evacuation.  Returns the
        ``degraded`` section."""
        from repro.fleet.migration import evacuate_host

        if not crashed:
            return {}
        assert self.chaos is not None and self.fold is not None
        fleet = auditor.fleet
        auditor.exclude = tuple(crashed)
        scheduler = make_scheduler(self.config.policy)
        evacuated = 0
        incidents: list[dict] = []
        for host_id in crashed:
            host = fleet.host(host_id)
            if obs.ENABLED:
                obs.emit(
                    obs.ChaosEvent(
                        chaos="host-crash",
                        host=host_id,
                        detail=f"evacuating {len(host.vm_specs)} VM(s)",
                    )
                )
            corrupt = None
            spec = self.chaos.corruption_for(host_id)
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
                fleet,
                host,
                scheduler,
                exclude=tuple(h for h in crashed if h != host_id),
                corrupt=corrupt,
            )
            for r in moved:
                self.fold.add_migration(
                    {
                        "vm": r.vm,
                        "src_host": r.src_host,
                        "dst_host": r.dst_host,
                        "bytes_copied": r.bytes_copied,
                        "verified": r.verified,
                    }
                )
            evacuated += len(moved)
            incidents.extend(incs)
            audits.append(auditor.audit(f"evacuation:host{host_id}").to_dict())
        return {
            "crashed_hosts": crashed,
            "evacuated_vms": evacuated,
            "incidents": incidents,
        }


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


def run_cluster_campaign(config: ClusterConfig, *, on_result=None) -> ClusterReport:
    """One-call convenience used by the bake-off and the benches."""
    return ClusterCampaign(config).run(on_result=on_result)


__all__ = [
    "ClusterCampaign",
    "ClusterConfig",
    "ClusterReport",
    "ClusterShard",
    "HostShape",
    "LogicalFleet",
    "LogicalHost",
    "measure_host_shape",
    "run_cluster_campaign",
    "shard_ranges",
]
