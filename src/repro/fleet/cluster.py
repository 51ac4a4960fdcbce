"""Cluster-scale fleet campaigns: 1000 hosts / 100k VMs in bounded memory.

The classic :class:`~repro.fleet.driver.FleetCampaign` boots every host
in the driver process before admission even starts — fine for 8 hosts,
hopeless for 1000 (a booted host is a full bit-level DRAM simulation).
Cluster mode replaces driver-side hosts with **logical capacity twins**:

- :class:`LogicalHost` replays ``SilozHypervisor._place_vm``'s §5.3
  admission arithmetic (``needed = memory + 2·backing_page``; chosen
  subarray-group nodes are fully consumed — one tenant per group) as
  integer bookkeeping against a shape measured from ONE real template
  boot.  It duck-types the slice of the :class:`~repro.fleet.host.Host`
  surface the schedulers and :class:`AdmissionController` touch, so the
  placement policies run verbatim against twins.
- Admission is **sharded**: hosts partition into contiguous per-shard
  ranges, each with its own bounded queue, and arrival *i* goes to
  shard ``i % shards`` — deterministic, so the merge digest is a pure
  function of (config, seed), never of worker count or backend.
- Decisions and host results fold into a
  :class:`~repro.fleet.report.StreamingMerge` as they happen; the
  driver never materializes the 100k-decision list or the per-host
  result list (workers stream compact payloads, ``collect=False``).

Trust but verify: the twins only *admit*; every worker re-runs the real
placement (``Host.boot`` + ``create_vm`` replay) for its host.  If a
twin ever admits something the real hypervisor rejects, the worker
returns a typed failed-host result and the campaign reports it loudly —
divergence can never be silent.

Saturation fast path: cluster capacity is monotone (no VM ever leaves),
so once a request needing ``N`` bytes exhausts its retries in a shard,
every later request needing ``>= N`` bytes in that shard must fail the
same way.  The shard records ``min_failed_needed`` and synthesizes the
*identical* retries-exhausted decision without re-scanning — that turns
the ~90k post-saturation arrivals of a 100k-VM trace into O(1) each
(:func:`tests.test_cluster` asserts the bypass is bit-equivalent to the
scanned path).

Chaos, journals, and resume are campaign-driver features; cluster mode
rejects them explicitly rather than half-supporting them.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field

from repro.errors import FleetError, PlacementError
from repro.hv.hypervisor import VmSpec
from repro.log import get_logger

from repro.fleet.admission import (
    AdmissionController,
    AdmissionDecision,
    RejectReason,
    iter_arrival_trace,
)
from repro.fleet.driver import (
    SCENARIOS,
    HostTask,
    run_host_task,
    warm_worker,
)
from repro.fleet.host import Host, HostSpec, derive_host_seed
from repro.fleet.report import StreamingMerge, _config_dict
from repro.fleet.scheduler import make_scheduler

_log = get_logger("fleet.cluster")


@dataclass(frozen=True)
class ClusterConfig:
    """One cluster-scale campaign, fully described.

    Deliberately a separate type from
    :class:`~repro.fleet.driver.CampaignConfig`: the classic config is
    hashed into journals and golden fixtures, and must not grow fields.
    ``shards`` IS part of the merge digest (shard boundaries change
    placement); ``workers`` and ``backend`` are scrubbed exactly as in
    the classic report.
    """

    hosts: int = 1000
    vms: int = 100_000
    policy: str = "first-fit"
    scenario: str = "attack"
    backend: str = "scalar"
    seed: int = 0
    workers: int = 1
    #: Attack-scenario fuzzer patterns per host (cluster default is
    #: lean: throughput, not per-host depth, is what is under test).
    budget: int = 2
    storm_errors: int = 20
    sockets: int = 1
    queue_depth: int = 64
    max_retries: int = 2
    vm_sizes_mib: tuple[int, ...] = (1, 2, 2, 3, 4)
    mitigation: str = "siloz"
    #: Admission shards (contiguous host ranges, arrival i -> i % shards).
    shards: int = 16

    def __post_init__(self) -> None:
        if self.hosts <= 0 or self.vms < 0:
            raise FleetError("need at least one host and a non-negative VM count")
        if self.workers <= 0:
            raise FleetError("workers must be positive")
        if self.scenario not in SCENARIOS:
            raise FleetError(f"unknown scenario {self.scenario!r}; know {SCENARIOS}")
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
    #: Free guest-reserved subarray-group nodes on a fresh host.
    guest_nodes: int
    #: Bytes per guest node (uniform — verified at measurement).
    node_bytes: int

    @property
    def guest_capacity_bytes(self) -> int:
        return self.guest_nodes * self.node_bytes


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
    cap = template.capacity()
    free_ids = list(cap.free_guest_node_ids)
    if not free_ids:
        raise FleetError("template host has no free guest nodes")
    sizes = {cap.free_bytes_by_node[n] for n in free_ids}
    if len(sizes) != 1:
        raise FleetError(
            f"cluster mode needs uniform guest nodes, got sizes {sorted(sizes)}"
        )
    return HostShape(
        backing_page_bytes=template.hv.backing_page_bytes,
        sockets=template.hv.machine.geom.sockets,
        guest_nodes=len(free_ids),
        node_bytes=sizes.pop(),
    )


class _LogicalDram:
    """Admission backoff advances simulated time fleet-wide; twins keep
    no clock (the real clocks live in the workers), so this is a no-op
    that preserves the controller's call surface."""

    def advance_time(self, seconds: float) -> None:
        if seconds < 0:
            raise FleetError("cannot advance time backwards")


class _LogicalGeom:
    __slots__ = ("sockets",)

    def __init__(self, sockets: int):
        self.sockets = sockets


class _LogicalMachine:
    __slots__ = ("geom", "dram")

    def __init__(self, sockets: int):
        self.geom = _LogicalGeom(sockets)
        self.dram = _LogicalDram()


class _LogicalHv:
    """The ``host.hv.*`` slice schedulers and admission actually touch."""

    __slots__ = ("backing_page_bytes", "machine")

    def __init__(self, shape: HostShape):
        self.backing_page_bytes = shape.backing_page_bytes
        self.machine = _LogicalMachine(shape.sockets)


@dataclass(frozen=True)
class _LogicalCapacity:
    """Duck-typed :class:`~repro.hv.hypervisor.CapacitySnapshot` slice."""

    free_guest_node_ids: tuple[int, ...]
    free_guest_bytes: int
    total_guest_nodes: int
    vm_count: int


class LogicalHost:
    """Integer-bookkeeping twin of one unbooted fleet host.

    Mirrors the §5.3 admission arithmetic: a placement needs
    ``memory + 2·backing_page`` bytes and consumes whole subarray-group
    nodes (``ceil(needed / node_bytes)`` of them — a chosen group is
    fully reserved for its single tenant even when partially used).
    ``host_fits``'s documented sufficient-and-necessary condition is
    exactly ``free bytes >= needed``, which is what makes this twin
    faithful; workers re-verify against the real hypervisor anyway.
    """

    __slots__ = ("spec", "shape", "hv", "free_nodes", "vm_specs")

    def __init__(self, spec: HostSpec, shape: HostShape, hv: _LogicalHv):
        self.spec = spec
        self.shape = shape
        self.hv = hv
        self.free_nodes = shape.guest_nodes
        #: Admitted VmSpecs in placement order (replayed by workers).
        self.vm_specs: dict[str, VmSpec] = {}

    @property
    def host_id(self) -> int:
        return self.spec.host_id

    def needed_nodes(self, spec: VmSpec) -> int:
        needed = spec.memory_bytes + 2 * self.shape.backing_page_bytes
        return -(-needed // self.shape.node_bytes)

    def capacity(self) -> _LogicalCapacity:
        """A capacity snapshot shaped like the real hypervisor's."""
        return _LogicalCapacity(
            # Ids are synthetic: callers only take len() of them.
            free_guest_node_ids=tuple(range(self.free_nodes)),
            free_guest_bytes=self.free_nodes * self.shape.node_bytes,
            total_guest_nodes=self.shape.guest_nodes,
            vm_count=len(self.vm_specs),
        )

    def create_vm(self, spec: VmSpec) -> None:
        """Consume group nodes for *spec*, or raise the same typed
        capacity :class:`PlacementError` a real host would."""
        needed = spec.memory_bytes + 2 * self.shape.backing_page_bytes
        take = self.needed_nodes(spec)
        if self.free_nodes * self.shape.node_bytes < needed:
            raise PlacementError(
                f"logical host {self.host_id} cannot place {spec.name!r}",
                requested_groups=take,
                available_groups=self.free_nodes,
            )
        self.free_nodes -= take
        self.vm_specs[spec.name] = spec

    def __repr__(self) -> str:
        return (
            f"LogicalHost(id={self.host_id}, vms={len(self.vm_specs)}, "
            f"free_groups={self.free_nodes}/{self.shape.guest_nodes})"
        )


@dataclass
class LogicalFleet:
    """Duck-typed :class:`~repro.fleet.host.Fleet` slice for one shard."""

    hosts: list[LogicalHost] = field(default_factory=list)

    @classmethod
    def build(
        cls, host_ids: range, shape: HostShape, config: ClusterConfig
    ) -> "LogicalFleet":
        hv = _LogicalHv(shape)  # shared: twins are stateless through hv
        return cls(
            hosts=[
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
                )
                for i in host_ids
            ]
        )

    def __len__(self) -> int:
        return len(self.hosts)

    def __iter__(self):
        return iter(self.hosts)

    @property
    def free_groups(self) -> int:
        return sum(h.free_nodes for h in self.hosts)


# ----------------------------------------------------------------------
# Sharded admission
# ----------------------------------------------------------------------


class ClusterShard:
    """One admission shard: a host range, a bounded queue, a scheduler.

    ``offer`` is drain-per-arrival: each request is submitted and the
    queue drained immediately, so retries happen in place and every
    arrival yields exactly one decision, in arrival order — the
    property the streaming decision fold depends on.
    """

    def __init__(self, shard_id: int, host_ids: range, config: ClusterConfig,
                 shape: HostShape, on_decision) -> None:
        self.shard_id = shard_id
        self.shape = shape
        self.fleet = LogicalFleet.build(host_ids, shape, config)
        self.controller = AdmissionController(
            self.fleet,  # type: ignore[arg-type] — duck-typed twin fleet
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

    def offer(self, spec: VmSpec) -> None:
        """Admit one arrival: submit + drain, or take the saturation
        fast path once an equal-or-smaller request has already
        exhausted its retries against this shard."""
        needed = spec.memory_bytes + 2 * self.shape.backing_page_bytes
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
    """Bounded-size outcome of one cluster campaign."""

    config: dict
    #: :meth:`StreamingMerge.summary` — includes ``merge_digest``.
    summary: dict
    supervision: dict
    #: Saturation fast-path hits across all shards (execution detail).
    pruned_arrivals: int
    elapsed_s: float
    hosts_per_sec: float
    #: Driver-process peak RSS (the bounded-memory claim is about the
    #: merge path, which runs here).
    peak_rss_mib: float

    @property
    def merge_digest(self) -> str:
        return self.summary["merge_digest"]

    @property
    def hosts_failed(self) -> int:
        return self.summary["hosts_failed"]

    def render_text(self) -> str:
        """Human-readable report ending with the merge digest line."""
        s = self.summary
        lines = [
            "cluster campaign report",
            f"  {s['hosts']} host(s) in {self.config.get('shards')} shard(s), "
            f"{s['admitted']}/{s['arrivals']} admitted "
            f"({s['acceptance_rate']:.1%}), "
            f"{s['hosts_failed']} host failure(s)",
            f"  policy={self.config.get('policy')} "
            f"scenario={self.config.get('scenario')} "
            f"backend={self.config.get('backend')} "
            f"seed={self.config.get('seed')}",
            f"  throughput: {self.hosts_per_sec:.1f} hosts/sec "
            f"({self.elapsed_s:.1f}s wall, peak rss {self.peak_rss_mib:.0f} MiB, "
            f"{self.pruned_arrivals} saturation-pruned arrival(s))",
        ]
        if s["rejected_by_reason"]:
            parts = ", ".join(
                f"{k}={v}" for k, v in sorted(s["rejected_by_reason"].items())
            )
            lines.append(f"  rejections: {parts}")
        if s["scenario_counts"]:
            parts = ", ".join(
                f"{k}={v}" for k, v in sorted(s["scenario_counts"].items())
            )
            lines.append(f"  outcomes: {parts}")
        lines.append(f"  merge digest: {self.merge_digest}")
        return "\n".join(lines)


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ClusterCampaign:
    """Sharded admission over logical twins + streaming supervised merge."""

    def __init__(self, config: ClusterConfig):
        self.config = config
        self.shards: list[ClusterShard] = []
        self.fold: StreamingMerge | None = None

    # -- phase 1: sharded admission over capacity twins -----------------

    def place(self) -> StreamingMerge:
        """Stream the arrival trace through the sharded admission
        queues, folding every decision into the streaming merge."""
        cfg = self.config
        shape = measure_host_shape(
            sockets=cfg.sockets, backend=cfg.backend, mitigation=cfg.mitigation
        )
        fold = StreamingMerge(_config_dict(cfg))
        fold.guest_capacity_bytes = cfg.hosts * shape.guest_capacity_bytes
        self.shards = [
            ClusterShard(s, ids, cfg, shape, fold.add_decision)
            for s, ids in enumerate(shard_ranges(cfg.hosts, cfg.shards))
        ]
        trace = iter_arrival_trace(
            cfg.seed, cfg.vms, sizes_mib=cfg.vm_sizes_mib, sockets=cfg.sockets
        )
        n = len(self.shards)
        for i, spec in enumerate(trace):
            self.shards[i % n].offer(spec)
        self.fold = fold
        _log.info(
            "cluster admission: %d/%d admitted across %d shard(s) "
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
            )
            for shard in self.shards
            for h in shard.fleet.hosts
        ]

    # -- phase 2+3: supervised execution, streaming merge ---------------

    def run(self) -> ClusterReport:
        """Place (if not already placed), execute every logical host's
        real per-host simulation under the worker pool, and finalize
        the streaming merge into a :class:`ClusterReport`."""
        from repro.chaos.supervisor import CampaignSupervisor

        cfg = self.config
        t0 = time.monotonic()
        if self.fold is None:
            self.place()
        fold = self.fold
        assert fold is not None
        tasks = self.tasks()

        supervisor = CampaignSupervisor(run_host_task, warmup=warm_worker)
        _, supervision = supervisor.run(
            tasks,
            cfg.workers,
            on_result=fold.add_host_result,
            collect=False,
        )
        fold.set_aftermath(degraded={}, audit=[])
        elapsed = time.monotonic() - t0

        summary = fold.summary()
        summary["scenario_counts"] = self._scenario_counts(summary)
        report = ClusterReport(
            # The report renders the full config; the fold hashed the
            # scrubbed one (no workers/backend).
            config=_config_dict(cfg),
            summary=summary,
            supervision=supervision.to_dict(),
            pruned_arrivals=self.pruned_arrivals,
            elapsed_s=elapsed,
            hosts_per_sec=(cfg.hosts / elapsed) if elapsed > 0 else 0.0,
            peak_rss_mib=_peak_rss_mib(),
        )
        _log.info("cluster campaign: %s", report.render_text().splitlines()[1])
        return report

    @staticmethod
    def _scenario_counts(summary: dict) -> dict:
        counts: dict[str, int] = {}
        if summary["flips"]:
            counts["flips"] = summary["flips"]
        if summary["escaped"]:
            counts["escaped"] = summary["escaped"]
        if summary["contained"]:
            counts["contained_hosts"] = summary["contained"]
        return counts


def run_cluster_campaign(config: ClusterConfig) -> ClusterReport:
    """One-call convenience used by the CLI and the scaling bench."""
    return ClusterCampaign(config).run()


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
