"""Persistent worker pool lifecycle edges (``repro.chaos.pool``).

The pool is the parallel engine behind ``CampaignSupervisor``; its
contracts are already exercised wholesale by ``test_chaos.py``.  This
file pins the *pool-specific* edges: worker death mid-task respawns +
requeues with the digest unchanged, one pool serves two campaigns in the
same process (same worker PIDs), and a pooled campaign merges
bit-identically with the serial path.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import pytest

from repro.chaos import (
    PersistentWorkerPool,
    SupervisorPolicy,
    WorkerDeathError,
    shared_pool,
    shutdown_shared_pools,
)
from repro.errors import ChaosError
from repro.fleet import ClusterCampaign, ClusterConfig


# ---------------------------------------------------------------------------
# Mini harness (module-level + picklable for fork workers)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Spec:
    host_id: int


@dataclass(frozen=True)
class _Task:
    spec: _Spec
    vm_specs: tuple = ()
    die_attempts: int = 0
    hard_exit_attempts: int = 0
    hang_attempts: int = 0


def _run(task: _Task, attempt: int = 1) -> dict:
    if attempt <= task.hard_exit_attempts:
        os._exit(3)
    if attempt <= task.die_attempts:
        raise WorkerDeathError(f"planned death on attempt {attempt}")
    if attempt <= task.hang_attempts:
        time.sleep(60.0)
    return {"host_id": task.spec.host_id, "ok": True, "attempt": attempt}


def _policy(**kw) -> SupervisorPolicy:
    defaults = dict(task_timeout_s=30.0, max_attempts=3, backoff_s=0.0)
    defaults.update(kw)
    return SupervisorPolicy(**defaults)


@pytest.fixture
def pool():
    p = PersistentWorkerPool(_run, 2)
    yield p
    p.close()


# ---------------------------------------------------------------------------
# Pool mechanics
# ---------------------------------------------------------------------------


class TestPoolLifecycle:
    def test_results_in_task_order(self, pool):
        tasks = [_Task(_Spec(i)) for i in (5, 1, 3, 0)]
        results, report = pool.run(tasks, _policy())
        assert [r["host_id"] for r in results] == [5, 1, 3, 0]
        assert report.retried == 0
        assert pool.respawns == 0

    def test_workers_survive_across_runs(self, pool):
        pool.run([_Task(_Spec(0))], _policy())
        pids_first = pool.worker_pids()
        pool.run([_Task(_Spec(i)) for i in range(4)], _policy())
        assert pool.worker_pids() == pids_first, (
            "healthy workers must be reused across campaigns, not respawned"
        )

    def test_worker_death_mid_task_respawns_and_requeues(self, pool):
        tasks = [_Task(_Spec(0), die_attempts=1), _Task(_Spec(1))]
        results, report = pool.run(tasks, _policy())
        assert [r["host_id"] for r in results] == [0, 1]
        assert results[0]["attempt"] == 2, "task must retry after the death"
        assert results[1]["attempt"] == 1
        assert report.worker_deaths == 1 and report.retried == 1
        assert pool.respawns == 1, "the dead worker must be replaced"
        assert len(pool.worker_pids()) == 2

    def test_raw_hard_exit_is_detected_and_retried(self, pool):
        results, report = pool.run(
            [_Task(_Spec(0), hard_exit_attempts=1)], _policy()
        )
        assert results[0]["ok"] and results[0]["attempt"] == 2
        assert report.worker_deaths == 1

    def test_hang_times_out_kills_and_requeues(self, pool):
        results, report = pool.run(
            [_Task(_Spec(0), hang_attempts=1), _Task(_Spec(1))],
            _policy(task_timeout_s=0.5),
        )
        assert [r["host_id"] for r in results] == [0, 1]
        assert results[0]["attempt"] == 2
        assert report.timeouts == 1
        assert pool.respawns >= 1

    def test_exhausted_attempts_give_typed_result(self, pool):
        results, report = pool.run(
            [_Task(_Spec(7), die_attempts=99)], _policy(max_attempts=2)
        )
        assert results[0]["ok"] is False
        assert results[0]["host_id"] == 7
        assert results[0]["gave_up"] is True
        assert report.outcomes[0].gave_up

    def test_collect_false_streams_via_on_result(self, pool):
        seen: list[int] = []
        results, _ = pool.run(
            [_Task(_Spec(i)) for i in range(3)],
            _policy(),
            on_result=lambda r: seen.append(r["host_id"]),
            collect=False,
        )
        assert results == []
        assert sorted(seen) == [0, 1, 2]

    def test_closed_pool_refuses_work(self, pool):
        pool.close()
        with pytest.raises(ChaosError):
            pool.run([_Task(_Spec(0))], _policy())

    def test_close_is_idempotent(self, pool):
        pool.close()
        pool.close()


class TestSharedPools:
    def test_shared_pool_is_reused_across_campaigns(self):
        try:
            a = shared_pool(_run, 2)
            a.run([_Task(_Spec(0))], _policy())
            pids = a.worker_pids()
            b = shared_pool(_run, 2)
            assert b is a
            b.run([_Task(_Spec(1))], _policy())
            assert b.worker_pids() == pids
        finally:
            shutdown_shared_pools()

    def test_closed_shared_pool_is_recreated(self):
        try:
            a = shared_pool(_run, 2)
            a.close()
            b = shared_pool(_run, 2)
            assert b is not a
            results, _ = b.run([_Task(_Spec(0))], _policy())
            assert results[0]["ok"]
        finally:
            shutdown_shared_pools()

    def test_worker_count_keys_distinct_pools(self):
        try:
            assert shared_pool(_run, 2) is not shared_pool(_run, 3)
        finally:
            shutdown_shared_pools()


# ---------------------------------------------------------------------------
# Supervisor integration: the pool against the serial path on a real campaign
# ---------------------------------------------------------------------------


def _small_config(**kw) -> ClusterConfig:
    defaults = dict(hosts=2, vms=6, budget=1, seed=7)
    defaults.update(kw)
    return ClusterConfig(**defaults)


class TestPoolModes:
    def test_persistent_and_serial_digests_match(self):
        persistent = ClusterCampaign(_small_config(workers=2)).run()
        serial = ClusterCampaign(_small_config(workers=1)).run()
        assert persistent.merge_digest == serial.merge_digest

    def test_worker_death_under_pool_keeps_digest(self):
        # A seed whose chaos plan includes worker deaths: the pool must
        # respawn + requeue and still merge bit-identically with the
        # serial path (which simulates the same deaths in-process).
        from repro.chaos import ChaosKind, ChaosPlan

        plan = next(
            p
            for p in (
                ChaosPlan.generate(s, 2, events=4, arrivals=6) for s in range(64)
            )
            if any(spec.kind is ChaosKind.WORKER_DEATH for spec in p.specs)
        )
        parallel = ClusterCampaign(_small_config(workers=2), plan).run()
        serial = ClusterCampaign(_small_config(workers=1), plan).run()
        assert parallel.merge_digest == serial.merge_digest
        assert parallel.supervision.get("worker_deaths", 0) >= 1, (
            "the chaos plan's worker death must actually have fired"
        )
