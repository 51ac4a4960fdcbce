"""Supervised execution of fleet host shards: timeouts, retries, and
dead-worker detection.

A fleet campaign hands its host tasks to a :class:`CampaignSupervisor`,
which runs them one of two ways:

- **serially, in-process** for ``workers=1`` (or a single task); a
  planned worker death surfaces as :class:`WorkerDeathError`;
- **on the shared** :class:`~repro.chaos.pool.PersistentWorkerPool`
  otherwise: long-lived workers with warm per-worker caches, where a
  planned death is a *real* ``os._exit`` and hangs hit
  ``task_timeout_s``.

Either way a failed attempt goes through the one retry ladder,
:func:`retry_ladder`:

- **Worker death** (the attempt ends without a result) or **timeout**
  (no result within ``task_timeout_s``; the pool terminates the
  worker): the shard is requeued with an incremented attempt counter,
  up to ``max_attempts``, with doubling wall-clock backoff between
  attempts — a hung shard can never wedge a campaign (or CI).
- **Giving up** (attempts exhausted): the shard resolves to a typed
  ``ok: False`` result dict, so the campaign degrades instead of
  crashing; the driver folds it into the report's ``degraded`` section.

Supervision metadata (attempt counts, deaths, timeouts) is collected in
a :class:`SupervisionReport` which the report layer keeps *out* of the
merge digest: how many times a shard had to run is an execution detail,
the shard's result is the contract.  Because both paths share the
ladder, ``--workers 1`` and ``--workers N`` merge bit-identically under
the same chaos plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import ChaosError
from repro.log import get_logger

_log = get_logger("chaos.supervisor")

#: Exit code a pooled worker uses for a planned chaos death.
WORKER_DEATH_EXIT = 70
#: Exit code for an unexpected crash inside a pooled worker.
WORKER_CRASH_EXIT = 81


class WorkerDeathError(ChaosError):
    """A planned worker-process death (chaos), surfaced in-process.

    Raised by the shard function when a ``WORKER_DEATH`` chaos spec
    fires.  A pooled worker converts it into a real ``os._exit`` so the
    parent exercises true dead-worker detection; in the serial path the
    supervisor catches it directly.
    """


@dataclass(frozen=True)
class SupervisorPolicy:
    """Retry/timeout budget for one campaign's shards."""

    #: Wall-clock seconds one shard attempt may run before termination.
    task_timeout_s: float = 120.0
    #: Total attempts per shard (first run + retries).
    max_attempts: int = 3
    #: Base wall-clock backoff before a retry; doubles per prior attempt.
    backoff_s: float = 0.05

    def __post_init__(self) -> None:
        if self.task_timeout_s <= 0:
            raise ChaosError("task_timeout_s must be positive")
        if self.max_attempts < 1:
            raise ChaosError("max_attempts must be at least 1")
        if self.backoff_s < 0:
            raise ChaosError("backoff_s must be non-negative")


@dataclass
class TaskOutcome:
    """Supervision metadata for one shard (never hashed into digests)."""

    host_id: int
    attempts: int = 1
    worker_deaths: int = 0
    timeouts: int = 0
    gave_up: bool = False

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form for the report's ``supervision`` section."""
        return {
            "host_id": self.host_id,
            "attempts": self.attempts,
            "worker_deaths": self.worker_deaths,
            "timeouts": self.timeouts,
            "gave_up": self.gave_up,
        }


@dataclass
class SupervisionReport:
    """What the supervisor did across the whole campaign."""

    outcomes: List[TaskOutcome] = field(default_factory=list)

    @property
    def retried(self) -> int:
        return sum(1 for o in self.outcomes if o.attempts > 1)

    @property
    def worker_deaths(self) -> int:
        return sum(o.worker_deaths for o in self.outcomes)

    @property
    def timeouts(self) -> int:
        return sum(o.timeouts for o in self.outcomes)

    def to_dict(self) -> Dict[str, Any]:
        """Aggregates plus per-shard outcomes, sorted by host id."""
        return {
            "retried": self.retried,
            "worker_deaths": self.worker_deaths,
            "timeouts": self.timeouts,
            "outcomes": [
                o.to_dict()
                for o in sorted(self.outcomes, key=lambda o: o.host_id)
            ],
        }


def retry_ladder(
    task: Any,
    outcome: TaskOutcome,
    attempt: int,
    policy: SupervisorPolicy,
    *,
    timed_out: bool = False,
    detail: str = "",
) -> Optional[dict]:
    """Handle one failed shard attempt (death or timeout).

    Counts and logs the failure, then either returns the typed degraded
    result (attempts exhausted) or sleeps the doubling backoff, bumps
    ``outcome.attempts`` and returns ``None`` — the caller then runs
    attempt ``attempt + 1``.  Deterministic given the chaos plan: the
    same plan kills the same attempts, so the same shards give up with
    the same error text at any worker count.
    """
    host_id = task.spec.host_id
    if timed_out:
        outcome.timeouts += 1
        _log.warning(
            "host %d shard timed out on attempt %d; requeueing", host_id, attempt
        )
        chaos, detail = "timeout", f"attempt {attempt}"
    else:
        outcome.worker_deaths += 1
        _log.warning(
            "host %d worker died on attempt %d (%s); requeueing",
            host_id, attempt, detail,
        )
        chaos, detail = "worker-death", f"attempt {attempt}: {detail}"
    if obs.ENABLED:
        obs.emit(obs.ChaosEvent(chaos=chaos, host=host_id, detail=detail))
    if attempt >= policy.max_attempts:
        outcome.gave_up = True
        _log.warning(
            "host %d shard gave up after %d attempt(s)",
            host_id, policy.max_attempts,
        )
        return {
            "host_id": host_id,
            "ok": False,
            "gave_up": True,
            "vms": [s.name for s in task.vm_specs],
            "placed_bytes": 0,
            "error": (
                f"supervisor: shard failed {policy.max_attempts} "
                "attempt(s) (worker death/timeout); giving up"
            ),
        }
    wait = policy.backoff_s * (2 ** (attempt - 1))
    if wait > 0:
        time.sleep(wait)
    outcome.attempts = attempt + 1
    return None


class CampaignSupervisor:
    """Run host shards to completion under a retry/timeout budget.

    ``run_fn(task, attempt=n)`` must be a picklable module-level
    callable returning a result dict with a ``host_id`` key; tasks must
    carry ``.spec.host_id``.  Results are returned in task order.
    """

    def __init__(
        self,
        run_fn: Callable[..., dict],
        *,
        policy: Optional[SupervisorPolicy] = None,
        warmup: Optional[Callable[[], None]] = None,
    ):
        self.run_fn = run_fn
        self.policy = policy or SupervisorPolicy()
        self.warmup = warmup

    def run(
        self,
        tasks: Sequence[Any],
        workers: int,
        *,
        on_result: Optional[Callable[[dict], None]] = None,
        collect: bool = True,
    ) -> Tuple[List[dict], SupervisionReport]:
        """Execute every task; returns (results, supervision report).

        *on_result* is invoked with each result dict as soon as the
        shard completes (the journal hook) — under SIGKILL the journal
        holds exactly the shards that finished.  With ``collect=False``
        the returned result list is empty and *on_result* is the only
        consumer — the cluster path folds results into a streaming
        merge instead of materializing them all.
        """
        if workers <= 1 or len(tasks) <= 1:
            return self._run_serial(tasks, on_result, collect)
        from repro.chaos.pool import shared_pool

        worker_pool = shared_pool(self.run_fn, workers, warmup=self.warmup)
        return worker_pool.run(
            tasks, self.policy, on_result=on_result, collect=collect
        )

    def _run_serial(
        self,
        tasks: Sequence[Any],
        on_result: Optional[Callable[[dict], None]],
        collect: bool = True,
    ) -> Tuple[List[dict], SupervisionReport]:
        """In-process path (workers=1): same retry ladder as the pool."""
        report = SupervisionReport()
        results: List[dict] = []
        for task in tasks:
            outcome = TaskOutcome(host_id=task.spec.host_id)
            report.outcomes.append(outcome)
            attempt = 1
            while True:
                try:
                    result = self.run_fn(task, attempt=attempt)
                    break
                except WorkerDeathError as exc:
                    result = retry_ladder(
                        task, outcome, attempt, self.policy, detail=str(exc)
                    )
                    if result is not None:
                        break
                    attempt += 1
            if collect:
                results.append(result)
            if on_result is not None:
                on_result(result)
        return results, report
