"""Declarative chaos plans: *which host fails, how, and when*.

A :class:`ChaosPlan` is the fleet-scale sibling of
:class:`~repro.faults.plan.FaultPlan`: a fully explicit, time-ordered
list of :class:`ChaosSpec` entries naming a host-level failure, its
target host, and its simulated-time trigger.  Every random choice is
resolved at *plan-construction* time (:meth:`ChaosPlan.generate`), so
the plan that comes out is deterministic data — the same
``--chaos-seed`` produces the same failure schedule on every run, at
any worker count, which is what lets a chaos campaign's merge digest
stay bit-identical across interruption and resume.

Chaos kinds model the fleet-level failure modes a production campaign
meets (CATTmew-style: isolation claims are only credible when the
harness stresses the paths where software isolation historically
breaks):

- ``HOST_CRASH`` — the host dies at ``at_clock``: its shard aborts and
  the supervisor evacuates its tenants to surviving hosts.
- ``WORKER_DEATH`` — the *worker process* simulating the host dies
  mid-shard (the host itself is fine); the supervisor must detect the
  dead worker and requeue the shard.
- ``UE_STORM`` — a DIMM-wide uncorrectable-error storm: multi-bit ECC
  faults rain on the host's rows and the PR 1 health monitor must
  escalate through soak/offline while isolation holds.
- ``DIGEST_CORRUPTION`` — a byte of a cross-host migration's region
  snapshot flips in transit; the sha256 verification in
  :mod:`repro.fleet.migration` must catch it and roll back.
- ``QUEUE_STALL`` — the admission queue freezes for a window of
  arrivals: backpressure must reject instead of wedging placement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum

from repro.errors import ChaosError


class ChaosKind(Enum):
    """The host-level failure modes a chaos plan can schedule."""

    HOST_CRASH = "host-crash"
    WORKER_DEATH = "worker-death"
    UE_STORM = "ue-storm"
    DIGEST_CORRUPTION = "digest-corruption"
    QUEUE_STALL = "queue-stall"


#: Kinds applied inside a host shard (worker side), in ``at_clock`` order.
SHARD_KINDS = (ChaosKind.HOST_CRASH, ChaosKind.WORKER_DEATH, ChaosKind.UE_STORM)
#: Kinds applied by the main process (placement / evacuation phases).
FLEET_KINDS = (ChaosKind.DIGEST_CORRUPTION, ChaosKind.QUEUE_STALL)


@dataclass(frozen=True)
class ChaosSpec:
    """One planned chaos event: kind + target host + trigger.

    ``at_clock`` is the simulated time (seconds) at which the event
    fires within its host's shard; which other fields matter depends on
    ``kind`` (validated in ``__post_init__``).  ``host_id`` is ``-1``
    for fleet-wide events (queue stalls have no single victim host).
    """

    kind: ChaosKind
    host_id: int
    at_clock: float = 0.0
    #: WORKER_DEATH: how many consecutive shard attempts die (retries
    #: after the last death succeed).
    kills: int = 1
    #: UE_STORM: uncorrectable errors injected, one row apart.
    ue_errors: int = 0
    #: DIGEST_CORRUPTION: byte offset flipped in the region snapshot
    #: (taken modulo the snapshot length at fire time).
    flip_offset: int = 0
    #: QUEUE_STALL: the arrival-trace index at which the queue freezes,
    #: for how long (simulated seconds), and over how many arrivals.
    arrival_index: int = 0
    stall_s: float = 0.0
    stall_width: int = 0

    def __post_init__(self) -> None:
        if self.at_clock < 0:
            raise ChaosError("at_clock must be non-negative")
        if self.kind is ChaosKind.QUEUE_STALL:
            if self.host_id != -1:
                raise ChaosError("queue-stall is fleet-wide: host_id must be -1")
            if self.stall_s <= 0 or self.stall_width <= 0:
                raise ChaosError("queue-stall needs positive stall_s and stall_width")
            if self.arrival_index < 0:
                raise ChaosError("arrival_index must be non-negative")
            return
        if self.host_id < 0:
            raise ChaosError(f"{self.kind.value} needs a target host")
        if self.kind is ChaosKind.WORKER_DEATH and self.kills <= 0:
            raise ChaosError("worker-death needs kills >= 1")
        if self.kind is ChaosKind.UE_STORM and self.ue_errors <= 0:
            raise ChaosError("ue-storm needs ue_errors >= 1")
        if self.kind is ChaosKind.DIGEST_CORRUPTION and self.flip_offset < 0:
            raise ChaosError("flip_offset must be non-negative")

    def describe(self) -> str:
        """One-line human summary used in plans, reports, and logs."""
        where = "fleet-wide" if self.host_id < 0 else f"host {self.host_id}"
        if self.kind is ChaosKind.HOST_CRASH:
            return f"t={self.at_clock:.4f} host-crash on {where}"
        if self.kind is ChaosKind.WORKER_DEATH:
            return f"t={self.at_clock:.4f} worker-death on {where} (x{self.kills})"
        if self.kind is ChaosKind.UE_STORM:
            return f"t={self.at_clock:.4f} ue-storm on {where} ({self.ue_errors} UEs)"
        if self.kind is ChaosKind.DIGEST_CORRUPTION:
            return (
                f"t={self.at_clock:.4f} digest-corruption on {where} "
                f"(byte {self.flip_offset})"
            )
        return (
            f"t={self.at_clock:.4f} queue-stall {where} at arrival "
            f"{self.arrival_index} ({self.stall_s}s, {self.stall_width} arrivals)"
        )

    def to_dict(self) -> dict:
        """Plain-dict form of one spec (see :meth:`ChaosPlan.to_dict`)."""
        return {
            "kind": self.kind.value,
            "host_id": self.host_id,
            "at_clock": self.at_clock,
            "kills": self.kills,
            "ue_errors": self.ue_errors,
            "flip_offset": self.flip_offset,
            "arrival_index": self.arrival_index,
            "stall_s": self.stall_s,
            "stall_width": self.stall_width,
        }


def _order(spec: ChaosSpec) -> tuple:
    return (spec.at_clock, spec.host_id, spec.kind.value)


@dataclass
class ChaosPlan:
    """An ordered, replayable schedule of host-level chaos.

    Like :class:`~repro.faults.plan.FaultPlan`, the ``seed`` records
    which RNG produced any generated specs and is bookkeeping only: the
    specs themselves are fully explicit data.
    """

    specs: list[ChaosSpec] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        self.specs = sorted(self.specs, key=_order)

    def __len__(self) -> int:
        return len(self.specs)

    def add(self, spec: ChaosSpec) -> "ChaosPlan":
        """Insert a spec, keeping the schedule ordered; returns self."""
        self.specs.append(spec)
        self.specs.sort(key=_order)
        return self

    def for_host(self, host_id: int) -> tuple[ChaosSpec, ...]:
        """Shard-phase specs targeting *host_id*, in trigger order."""
        return tuple(
            s for s in self.specs if s.host_id == host_id and s.kind in SHARD_KINDS
        )

    def stalls(self) -> tuple[ChaosSpec, ...]:
        """Placement-phase queue stalls, in arrival order."""
        return tuple(
            sorted(
                (s for s in self.specs if s.kind is ChaosKind.QUEUE_STALL),
                key=lambda s: s.arrival_index,
            )
        )

    def corruption_for(self, host_id: int) -> ChaosSpec | None:
        """The digest-corruption spec armed for *host_id*, if any."""
        for s in self.specs:
            if s.kind is ChaosKind.DIGEST_CORRUPTION and s.host_id == host_id:
                return s
        return None

    def describe(self) -> list[str]:
        """The whole schedule, one human-readable line per event."""
        return [s.describe() for s in self.specs]

    def to_dict(self) -> dict:
        """Plain-dict form of the whole plan, hashed into a chaos
        campaign's identity (merge digest and journal header)."""
        return {"seed": self.seed, "specs": [s.to_dict() for s in self.specs]}

    # ------------------------------------------------------------------
    # Generator (all randomness resolved here, at build time)
    # ------------------------------------------------------------------

    @classmethod
    def generate(
        cls,
        seed: int,
        hosts: int,
        *,
        events: int = 4,
        arrivals: int = 12,
        duration_s: float = 0.02,
        kinds: tuple[ChaosKind, ...] = tuple(ChaosKind),
    ) -> "ChaosPlan":
        """A seeded schedule of *events* chaos events over *hosts*.

        At most one event per ``(kind, host)`` pair (a host cannot crash
        twice), and a generated ``DIGEST_CORRUPTION`` always rides with
        a ``HOST_CRASH`` on the same host — corruption only bites during
        the evacuation that a crash triggers, so a lone corruption spec
        would be dead weight in the plan.
        """
        if hosts <= 0:
            raise ChaosError("need at least one host to plan chaos for")
        if events < 0:
            raise ChaosError("events must be non-negative")
        if duration_s <= 0:
            raise ChaosError("duration_s must be positive")
        if not kinds:
            raise ChaosError("need at least one chaos kind to draw from")
        rng = random.Random(seed ^ 0xC4A05)
        taken: set[tuple[ChaosKind, int]] = set()
        plan = cls(seed=seed)
        for _ in range(events):
            kind = rng.choice(kinds)
            host = -1 if kind is ChaosKind.QUEUE_STALL else rng.randrange(hosts)
            if (kind, host) in taken:
                continue  # deterministic skip: one event per (kind, host)
            taken.add((kind, host))
            at = round(rng.uniform(0.0, duration_s), 6)
            if kind is ChaosKind.QUEUE_STALL:
                plan.add(
                    ChaosSpec(
                        kind=kind,
                        host_id=-1,
                        at_clock=at,
                        arrival_index=rng.randrange(max(1, arrivals)),
                        stall_s=round(rng.uniform(0.001, 0.01), 6),
                        stall_width=rng.randint(1, 3),
                    )
                )
            elif kind is ChaosKind.WORKER_DEATH:
                plan.add(ChaosSpec(kind=kind, host_id=host, at_clock=at, kills=1))
            elif kind is ChaosKind.UE_STORM:
                plan.add(
                    ChaosSpec(
                        kind=kind, host_id=host, at_clock=at,
                        ue_errors=rng.randint(2, 4),
                    )
                )
            elif kind is ChaosKind.DIGEST_CORRUPTION:
                plan.add(
                    ChaosSpec(
                        kind=kind, host_id=host, at_clock=at,
                        flip_offset=rng.randrange(1 << 20),
                    )
                )
                if (ChaosKind.HOST_CRASH, host) not in taken:
                    taken.add((ChaosKind.HOST_CRASH, host))
                    plan.add(
                        ChaosSpec(
                            kind=ChaosKind.HOST_CRASH, host_id=host, at_clock=at
                        )
                    )
            else:  # HOST_CRASH
                plan.add(ChaosSpec(kind=kind, host_id=host, at_clock=at))
        return plan
