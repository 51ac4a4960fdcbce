"""Persistent worker pools: long-lived shard workers with warm state.

The parallel engine behind :class:`~repro.chaos.supervisor.CampaignSupervisor`
(``workers > 1``).  A :class:`PersistentWorkerPool` keeps ``workers``
processes alive for the whole campaign (and, via :func:`shared_pool`,
across campaigns in the same driver process).  Workers loop on a
private duplex pipe pulling ``(task, attempt)`` messages and pushing
result dicts back, so the per-task cost is one pickle round-trip while
per-process caches (Skylake decode LUTs, geometry tables, memoized
mapping state) stay warm from the first task onward.

Chaos contracts:

- a planned ``WorkerDeathError`` becomes a **real**
  ``os._exit(WORKER_DEATH_EXIT)`` inside the worker, so the parent's
  dead-worker detection is exercised, not simulated;
- an unexpected exception in the shard function crash-exits the worker
  (``WORKER_CRASH_EXIT``) rather than risking a poisoned loop;
- a dead worker is **respawned** and its task goes through the
  supervisor's :func:`~repro.chaos.supervisor.retry_ladder` — requeued
  with an incremented attempt counter and doubling backoff, or given up;
- a hung task is terminated at ``task_timeout_s`` and handled the same
  way (the replacement worker starts cold — chaos costs chaos);
- results are returned in task order and the ``workers=1 ≡ workers=N``
  merge-digest invariant holds because the shard function is pure in
  ``(task, attempt)``.

Because per-process observability state is frozen at fork time, the
parent ships its current ``obs.ENABLED`` flag with every task message
and the worker syncs before running — a pool created before ``--trace``
still produces per-host trace summaries afterwards.
"""

from __future__ import annotations

import atexit
import os
import time
from dataclasses import dataclass
from multiprocessing import connection, get_context
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import ChaosError
from repro.log import get_logger

from repro.chaos.supervisor import (
    SupervisionReport,
    SupervisorPolicy,
    TaskOutcome,
    WORKER_CRASH_EXIT,
    WORKER_DEATH_EXIT,
    WorkerDeathError,
    retry_ladder,
)

_log = get_logger("chaos.pool")

#: Message sent to a worker to make it exit its loop cleanly.
_SHUTDOWN = None


def _pool_worker_main(
    conn: Any,
    inherited: Sequence[Any],
    run_fn: Callable[..., dict],
    warmup: Optional[Callable[[], None]],
) -> None:
    """Worker process body: warm up once, then loop on the task pipe.

    *inherited* are the driver-side pipe ends a forked worker holds
    copies of: its own and every earlier worker's.  Closing them first
    leaves the driver as the only holder of each, so when the driver
    dies (even by SIGKILL) every worker reads EOF and exits instead of
    blocking in ``recv`` forever.

    The chaos exits are deliberate: a planned :class:`WorkerDeathError`
    and an unexpected shard exception both kill the *process* (not just
    the task) so the parent exercises true dead-worker detection and a
    fresh worker replaces any possibly-corrupted interpreter state.
    """
    for end in inherited:
        end.close()
    if warmup is not None:
        try:
            warmup()
        except Exception:  # noqa: BLE001 — warmup is best-effort by design
            pass
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            os._exit(0)
        if msg is _SHUTDOWN:
            conn.close()
            os._exit(0)
        task, attempt, obs_on = msg
        if obs_on and not obs.ENABLED:
            obs.enable()
        elif not obs_on and obs.ENABLED:
            obs.disable()
        try:
            result = run_fn(task, attempt=attempt)
        except WorkerDeathError:
            os._exit(WORKER_DEATH_EXIT)
        except Exception:  # noqa: BLE001 — any shard bug is a crash exit
            os._exit(WORKER_CRASH_EXIT)
        try:
            conn.send(result)
        except (BrokenPipeError, OSError):
            os._exit(0)


@dataclass
class _Assigned:
    """One in-flight task on one worker."""

    task: Any
    attempt: int
    deadline: float
    outcome: TaskOutcome


class _Worker:
    """Parent-side handle for one pooled process."""

    __slots__ = ("proc", "conn", "busy")

    def __init__(self, proc: Any, conn: Any):
        self.proc = proc
        self.conn = conn
        self.busy: Optional[_Assigned] = None

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid


class PersistentWorkerPool:
    """``workers`` long-lived shard processes plus the dispatch loop.

    Construct once, call :meth:`run` per campaign, :meth:`close` when
    done (or let :func:`shutdown_shared_pools` / process exit reap the
    daemonized workers).  Workers created by an earlier :meth:`run`
    survive into the next one with their caches warm — the whole point.
    """

    def __init__(
        self,
        run_fn: Callable[..., dict],
        workers: int,
        *,
        warmup: Optional[Callable[[], None]] = None,
    ):
        if workers < 1:
            raise ChaosError("a worker pool needs at least one worker")
        self.run_fn = run_fn
        self.workers = workers
        self.warmup = warmup
        self._pool: List[_Worker] = []
        self._ctx = get_context()
        self._closed = False
        #: Lifetime respawn count (worker deaths + timeout kills).
        self.respawns = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def ensure_started(self) -> None:
        if self._closed:
            raise ChaosError("pool is closed")
        while len(self._pool) < self.workers:
            self._pool.append(self._spawn())

    def _spawn(self) -> _Worker:
        parent, child = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(child, [parent, *(w.conn for w in self._pool)], self.run_fn, self.warmup),
            daemon=True,
        )
        proc.start()
        child.close()
        return _Worker(proc, parent)

    def _respawn(self, worker: _Worker) -> None:
        """Replace a dead or killed worker in place."""
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.proc.join()
        fresh = self._spawn()
        worker.proc, worker.conn, worker.busy = fresh.proc, fresh.conn, None
        self.respawns += 1

    def worker_pids(self) -> List[int]:
        """Live worker PIDs (stable across campaigns unless chaos or
        timeouts forced respawns) — the pool-reuse tests key off this."""
        return [w.pid for w in self._pool if w.pid is not None]

    def close(self) -> None:
        """Shut every worker down; idempotent."""
        if self._closed:
            return
        self._closed = True
        for w in self._pool:
            try:
                w.conn.send(_SHUTDOWN)
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 2.0
        for w in self._pool:
            w.proc.join(max(0.0, deadline - time.monotonic()))
            if w.proc.is_alive():
                w.proc.terminate()
                w.proc.join()
            try:
                w.conn.close()
            except OSError:
                pass
        self._pool.clear()

    # ------------------------------------------------------------------
    # Campaign execution
    # ------------------------------------------------------------------

    def run(
        self,
        tasks: Sequence[Any],
        policy: SupervisorPolicy,
        *,
        on_result: Optional[Callable[[dict], None]] = None,
        collect: bool = True,
    ) -> Tuple[List[dict], SupervisionReport]:
        """Execute every task on the pool under *policy*.

        Same contract as ``CampaignSupervisor._run_serial``: results
        in task order (empty list when ``collect=False`` — the
        streaming-merge path folds via *on_result* instead), plus the
        supervision report.  Tasks must carry ``.spec.host_id``.
        """
        self.ensure_started()
        report = SupervisionReport()
        outcomes: Dict[int, TaskOutcome] = {}
        for task in tasks:
            outcome = TaskOutcome(host_id=task.spec.host_id)
            outcomes[id(task)] = outcome
            report.outcomes.append(outcome)
        pending: List[Tuple[Any, int]] = [(t, 1) for t in tasks]
        index_of = {id(t): i for i, t in enumerate(tasks)}
        results: Dict[int, dict] = {}
        done = 0

        def finish(task: Any, result: dict) -> None:
            nonlocal done
            done += 1
            if collect:
                results[index_of[id(task)]] = result
            if on_result is not None:
                on_result(result)

        def retire(assigned: _Assigned, *, timed_out: bool, detail: str = "") -> None:
            gave_up = retry_ladder(
                assigned.task,
                assigned.outcome,
                assigned.attempt,
                policy,
                timed_out=timed_out,
                detail=detail,
            )
            if gave_up is not None:
                finish(assigned.task, gave_up)
            else:
                pending.append((assigned.task, assigned.attempt + 1))

        def dispatch(worker: _Worker, task: Any, attempt: int) -> bool:
            """Send one task; ``False`` means the worker was dead (it is
            respawned and the caller should try again)."""
            try:
                worker.conn.send((task, attempt, obs.ENABLED))
            except (BrokenPipeError, OSError):
                self._respawn(worker)
                return False
            worker.busy = _Assigned(
                task=task,
                attempt=attempt,
                deadline=time.monotonic() + policy.task_timeout_s,
                outcome=outcomes[id(task)],
            )
            return True

        total = len(tasks)
        while done < total:
            # Hand pending work to idle workers.
            for worker in self._pool:
                if not pending:
                    break
                if worker.busy is None:
                    task, attempt = pending.pop(0)
                    if not dispatch(worker, task, attempt):
                        pending.insert(0, (task, attempt))
            busy = [w for w in self._pool if w.busy is not None]
            if not busy:
                if pending:
                    continue  # a dispatch just failed; retry the loop
                break  # nothing in flight and nothing pending
            now = time.monotonic()
            wait_s = max(
                0.001, min(w.busy.deadline for w in busy) - now
            )
            waitables: Dict[Any, _Worker] = {}
            for w in busy:
                waitables[w.conn] = w
                waitables[w.proc.sentinel] = w
            ready = connection.wait(list(waitables), timeout=wait_s)
            seen: set[int] = set()
            for obj in ready:
                worker = waitables[obj]
                if id(worker) in seen or worker.busy is None:
                    continue
                seen.add(id(worker))
                assigned = worker.busy
                got: Optional[dict] = None
                try:
                    if worker.conn.poll():
                        got = worker.conn.recv()
                except (EOFError, OSError):
                    got = None
                if got is not None:
                    worker.busy = None
                    finish(assigned.task, got)
                elif not worker.proc.is_alive():
                    exitcode = worker.proc.exitcode
                    self._respawn(worker)
                    retire(
                        assigned,
                        timed_out=False,
                        detail=f"pooled worker exit code {exitcode}",
                    )
                # else: spurious wake (e.g. sentinel raced a result that
                # has not landed yet) — the next loop pass resolves it.
            # Enforce deadlines on whatever is still running.
            now = time.monotonic()
            for worker in self._pool:
                assigned = worker.busy
                if assigned is not None and assigned.deadline <= now:
                    worker.proc.terminate()
                    self._respawn(worker)
                    retire(assigned, timed_out=True)
        ordered = [results[i] for i in sorted(results)] if collect else []
        return ordered, report


# ---------------------------------------------------------------------------
# Shared pools: reuse warm workers across campaigns in one process
# ---------------------------------------------------------------------------

_SHARED: Dict[Tuple[str, int], PersistentWorkerPool] = {}


def _pool_key(run_fn: Callable[..., dict], workers: int) -> Tuple[str, int]:
    return (f"{run_fn.__module__}.{run_fn.__qualname__}", workers)


def shared_pool(
    run_fn: Callable[..., dict],
    workers: int,
    *,
    warmup: Optional[Callable[[], None]] = None,
) -> PersistentWorkerPool:
    """The process-wide pool for ``(run_fn, workers)``, created on first
    use and kept warm across campaigns — back-to-back ``repro fleet``
    runs in one driver process (the bake-off, the scaling bench, the
    cluster shards) reuse the same workers and their hot decode caches.
    """
    key = _pool_key(run_fn, workers)
    pool = _SHARED.get(key)
    if pool is None or pool._closed:
        pool = PersistentWorkerPool(run_fn, workers, warmup=warmup)
        _SHARED[key] = pool
    return pool


def shutdown_shared_pools() -> int:
    """Close every shared pool; returns how many were shut down."""
    count = 0
    for pool in list(_SHARED.values()):
        if not pool._closed:
            pool.close()
            count += 1
    _SHARED.clear()
    return count


atexit.register(shutdown_shared_pools)


__all__ = [
    "PersistentWorkerPool",
    "shared_pool",
    "shutdown_shared_pools",
]
