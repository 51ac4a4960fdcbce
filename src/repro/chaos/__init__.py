"""``repro.chaos`` — seeded fleet-scale chaos engineering + supervision.

The package makes fleet campaigns survivable, resumable, and
continuously audited while failure is injected:

- :mod:`repro.chaos.plan` — deterministic, seeded :class:`ChaosPlan`
  scheduling host-level events (host crash, worker-process death, DIMM
  UE storm, migration digest corruption, admission-queue stall) at
  simulated timestamps, in the :class:`~repro.faults.plan.FaultPlan`
  idiom: all randomness resolved at build time, plans are replayable
  data.
- :mod:`repro.chaos.supervisor` — :class:`CampaignSupervisor` gives
  each host shard a timeout and bounded retries with backoff (one retry
  ladder for the serial and the pooled path), detects dead worker
  processes, and degrades to typed ``ok: False`` results instead of
  crashing.
- :mod:`repro.chaos.pool` — :class:`PersistentWorkerPool`, the parallel
  execution engine behind the supervisor: long-lived workers pulling
  tasks over pipes with warm per-worker caches, shared across campaigns
  via :func:`shared_pool`.
- :mod:`repro.chaos.journal` — :class:`CampaignJournal`, the JSONL
  checkpoint log behind ``repro fleet --resume``: a SIGKILLed campaign
  resumes bit-identically, skipping completed shards.
- :mod:`repro.chaos.audit` — :class:`IsolationAuditor` re-runs each
  surviving host's :meth:`Mitigation.audit` (one tenant per domain,
  guard rows retired) after every handled chaos event and at campaign
  end.
"""

from repro.chaos.audit import AuditReport, IsolationAuditor
from repro.chaos.journal import CampaignJournal, config_digest
from repro.chaos.plan import (
    ChaosKind,
    ChaosPlan,
    ChaosSpec,
    FLEET_KINDS,
    SHARD_KINDS,
)
from repro.chaos.pool import (
    PersistentWorkerPool,
    shared_pool,
    shutdown_shared_pools,
)
from repro.chaos.supervisor import (
    CampaignSupervisor,
    SupervisionReport,
    SupervisorPolicy,
    TaskOutcome,
    WORKER_CRASH_EXIT,
    WORKER_DEATH_EXIT,
    WorkerDeathError,
)

__all__ = [
    "AuditReport",
    "CampaignJournal",
    "CampaignSupervisor",
    "ChaosKind",
    "ChaosPlan",
    "ChaosSpec",
    "FLEET_KINDS",
    "IsolationAuditor",
    "PersistentWorkerPool",
    "SHARD_KINDS",
    "SupervisionReport",
    "SupervisorPolicy",
    "TaskOutcome",
    "WORKER_CRASH_EXIT",
    "WORKER_DEATH_EXIT",
    "WorkerDeathError",
    "config_digest",
    "shared_pool",
    "shutdown_shared_pools",
]
