"""Fleet admission control: a bounded request queue with backpressure.

Tenant requests arrive as :class:`VmSpec`s and wait in a bounded FIFO.
``submit`` applies **backpressure**: a full queue rejects immediately
(typed ``QUEUE_FULL``) instead of growing without bound — the cloud
front door's 429.  ``drain`` processes the queue through a placement
scheduler; a request the fleet cannot place *right now* is retried up
to ``max_retries`` times (later requests may be smaller and fit, and
each retry lets simulated time advance by a doubling backoff, modelling
capacity freed by churn) before being evicted with a typed reason.

Every decision is recorded as an :class:`AdmissionDecision` and emitted
as an :class:`~repro.obs.events.AdmissionEvent`, so acceptance rates
and rejection causes are first-class fleet metrics.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from enum import Enum

from repro import obs
from repro.errors import FleetError, HvError, PlacementError
from repro.hv.hypervisor import VmSpec
from repro.log import get_logger
from repro.units import MiB

from repro.fleet.host import Fleet
from repro.fleet.scheduler import SCHEDULERS, PlacementScheduler, spec_page_aligned

_log = get_logger("fleet.admission")


def check_fleet_fields(config, error: type[Exception] = FleetError) -> None:
    """Validation shared by every config that boots and admits into a
    fleet (campaigns and the serve daemon): host count, placement
    policy, admission queue, retries and mitigation, raised as *error*."""
    from repro.mitigations import mitigation_names

    if config.hosts <= 0:
        raise error("need at least one host")
    if config.policy not in SCHEDULERS:
        raise error(
            f"unknown placement policy {config.policy!r}; "
            f"know {sorted(SCHEDULERS)}"
        )
    if config.queue_depth <= 0:
        raise error("queue_depth must be positive")
    if config.max_retries < 0:
        raise error("max_retries must be non-negative")
    if config.mitigation not in mitigation_names():
        raise error(
            f"unknown mitigation {config.mitigation!r}; "
            f"know {mitigation_names()}"
        )


class RejectReason(Enum):
    """Why a tenant request was evicted (typed, for callers and metrics)."""

    #: Backpressure: the bounded queue was full at submit time.
    QUEUE_FULL = "queue-full"
    #: The spec violates a static constraint (page alignment, bad socket).
    INVALID_SPEC = "invalid-spec"
    #: Transient capacity shortfall persisted through every retry.
    RETRIES_EXHAUSTED = "retries-exhausted"


@dataclass(frozen=True)
class AdmissionDecision:
    """One request's final disposition."""

    vm: str
    admitted: bool
    #: Placing host id (admitted) or -1.
    host_id: int = -1
    reason: RejectReason | None = None
    attempts: int = 1
    #: Shortfall detail from the last typed capacity error (if any).
    requested_groups: int | None = None
    available_groups: int | None = None

    @property
    def outcome(self) -> str:
        return "admitted" if self.admitted else "rejected"


@dataclass(frozen=True)
class _Pending:
    spec: VmSpec
    attempts: int = 0


class AdmissionController:
    """Bounded admission queue in front of a fleet + scheduler."""

    def __init__(
        self,
        fleet: Fleet,
        scheduler: PlacementScheduler,
        *,
        queue_depth: int = 64,
        max_retries: int = 2,
        backoff_s: float = 0.001,
        retain_decisions: bool = True,
        on_decision=None,
    ):
        if queue_depth <= 0:
            raise HvError("queue_depth must be positive")
        if max_retries < 0:
            raise HvError("max_retries must be non-negative")
        self.fleet = fleet
        self.scheduler = scheduler
        self.queue_depth = queue_depth
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self._queue: deque[_Pending] = deque()
        #: When False, decisions are streamed to ``on_decision`` (if
        #: set) and **not** accumulated — cluster-scale campaigns fold
        #: 100k decisions without holding them.  Aggregate accounting
        #: (acceptance rate, rejections by reason) stays exact either
        #: way via the running counters below.
        self.retain_decisions = retain_decisions
        self.on_decision = on_decision
        self.decisions: list[AdmissionDecision] = []
        self._decided = 0
        self._admitted = 0
        self._rejected: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Intake (backpressure)
    # ------------------------------------------------------------------

    @property
    def queued(self) -> int:
        return len(self._queue)

    def submit(self, spec: VmSpec) -> bool:
        """Enqueue one request; ``False`` means rejected at the door
        (queue full — the caller should back off and resubmit later)."""
        if len(self._queue) >= self.queue_depth:
            self._decide(
                AdmissionDecision(
                    vm=spec.name, admitted=False, reason=RejectReason.QUEUE_FULL
                )
            )
            return False
        self._queue.append(_Pending(spec))
        return True

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------

    def drain(self) -> list[AdmissionDecision]:
        """Process the queue to empty; returns the decisions made now.

        FIFO with retry-to-tail: a request that cannot be placed is
        requeued behind the work already waiting (it will see a fleet
        that later, smaller requests may have changed), up to
        ``max_retries`` requeues before eviction.
        """
        made: list[AdmissionDecision] = []
        while self._queue:
            pending = self._queue.popleft()
            decision = self._try_place(pending)
            if decision is None:  # requeued for retry
                continue
            made.append(decision)
        return made

    def _try_place(self, pending: _Pending) -> AdmissionDecision | None:
        spec, attempt = pending.spec, pending.attempts + 1
        if not any(spec_page_aligned(h, spec) for h in self.fleet.hosts) or not any(
            spec.socket < h.hv.machine.geom.sockets for h in self.fleet.hosts
        ):
            return self._decide(
                AdmissionDecision(
                    vm=spec.name,
                    admitted=False,
                    reason=RejectReason.INVALID_SPEC,
                    attempts=attempt,
                )
            )
        try:
            host = self.scheduler.place(self.fleet, spec)
        except PlacementError as exc:
            if not exc.is_capacity:
                raise
            if pending.attempts < self.max_retries:
                self._backoff(pending.attempts)
                self._queue.append(_Pending(spec, attempts=attempt))
                return None
            return self._decide(
                AdmissionDecision(
                    vm=spec.name,
                    admitted=False,
                    reason=RejectReason.RETRIES_EXHAUSTED,
                    attempts=attempt,
                    requested_groups=exc.requested_groups,
                    available_groups=exc.available_groups,
                )
            )
        return self._decide(
            AdmissionDecision(
                vm=spec.name, admitted=True, host_id=host.host_id, attempts=attempt
            )
        )

    def stall(self, seconds: float) -> None:
        """Chaos hook: the placement daemon wedges for *seconds* of
        simulated time — nothing drains, clocks advance fleet-wide, and
        queued requests sit.  Callers model the outage window by
        refusing to drain-on-backpressure while stalled, so a full
        queue rejects (typed ``QUEUE_FULL``) instead of wedging the
        arrival loop — backpressure is exactly the behaviour under
        test."""
        if seconds < 0:
            raise HvError("stall seconds must be non-negative")
        for host in self.fleet.hosts:
            host.hv.machine.dram.advance_time(seconds)

    def _backoff(self, prior_attempts: int) -> None:
        """Let simulated time pass fleet-wide before the retry (churn
        may free capacity meanwhile), doubling per attempt."""
        wait = self.backoff_s * (2 ** prior_attempts)
        for host in self.fleet.hosts:
            host.hv.machine.dram.advance_time(wait)

    def record_decision(self, decision: AdmissionDecision) -> AdmissionDecision:
        """Record a decision made outside the queue machinery.

        Cluster mode's saturation fast path synthesizes the decision a
        full retry ladder would reach (capacity is monotone, so the
        outcome is already known) and records it here so counters, the
        decision stream, and the admission events stay exact.
        """
        return self._decide(decision)

    def _decide(self, decision: AdmissionDecision) -> AdmissionDecision:
        if self.retain_decisions:
            self.decisions.append(decision)
        self._decided += 1
        if decision.admitted:
            self._admitted += 1
        elif decision.reason is not None:
            key = decision.reason.value
            self._rejected[key] = self._rejected.get(key, 0) + 1
        if self.on_decision is not None:
            self.on_decision(decision)
        _log.info(
            "admission: %s %s%s (attempt %d)",
            decision.vm,
            decision.outcome,
            f" -> host {decision.host_id}" if decision.admitted
            else f" ({decision.reason.value})",
            decision.attempts,
        )
        if obs.ENABLED:
            obs.emit(
                obs.AdmissionEvent(
                    vm=decision.vm,
                    outcome=decision.outcome,
                    reason=decision.reason.value if decision.reason else "",
                    host=decision.host_id,
                    attempts=decision.attempts,
                )
            )
        return decision

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def decided(self) -> int:
        """Total decisions made (exact even with ``retain_decisions=False``)."""
        return self._decided

    @property
    def acceptance_rate(self) -> float:
        if not self._decided:
            return 0.0
        return self._admitted / self._decided

    def rejected_by_reason(self) -> dict[str, int]:
        return dict(self._rejected)


def iter_arrival_trace(
    seed: int,
    count: int,
    *,
    sizes_mib: tuple[int, ...] = (1, 2, 2, 3, 4),
    sockets: int = 1,
    name_prefix: str = "vm",
):
    """Generator form of :func:`generate_arrival_trace` — identical
    specs in identical order, but O(1) memory, so a 100k-VM cluster
    trace streams through admission without ever materializing."""
    rng = random.Random(seed ^ 0x5F1EE7)
    for i in range(count):
        yield VmSpec(
            name=f"{name_prefix}-{i:03d}",
            memory_bytes=rng.choice(sizes_mib) * MiB,
            socket=rng.randrange(sockets),
        )


def generate_arrival_trace(
    seed: int,
    count: int,
    *,
    sizes_mib: tuple[int, ...] = (1, 2, 2, 3, 4),
    sockets: int = 1,
    name_prefix: str = "vm",
) -> list[VmSpec]:
    """A deterministic tenant arrival trace: *count* VM requests with
    sizes drawn (seeded) from *sizes_mib* and round-robin-ish sockets.

    Sizes are whole MiB so they satisfy every small-machine backing page
    size; the same ``(seed, count)`` always yields the same trace — the
    workers=1 vs workers=N determinism criterion depends on it.
    """
    return list(
        iter_arrival_trace(
            seed,
            count,
            sizes_mib=sizes_mib,
            sockets=sockets,
            name_prefix=name_prefix,
        )
    )
