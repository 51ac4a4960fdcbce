"""Tests for ``repro.chaos``: plans, supervised execution, checkpoint
journals, the isolation auditor, and chaos campaigns end to end."""

import json
import os
import time
from dataclasses import dataclass

import pytest

from repro import obs
from repro.chaos import (
    CampaignJournal,
    CampaignSupervisor,
    ChaosKind,
    ChaosPlan,
    ChaosSpec,
    IsolationAuditor,
    SupervisorPolicy,
    WorkerDeathError,
    config_digest,
)
from repro.errors import ChaosError
from repro.fleet import (
    ClusterCampaign,
    ClusterConfig,
    Fleet,
    HostTask,
    MigrationError,
    evacuate_host,
    make_scheduler,
    migrate_vm,
    run_host_task,
)
from repro.fleet.report import _config_dict
from repro.hv import VmSpec
from repro.units import MiB


# ---------------------------------------------------------------------------
# Chaos plans
# ---------------------------------------------------------------------------


class TestChaosPlan:
    def test_generate_is_deterministic(self):
        a = ChaosPlan.generate(7, 4, events=6, arrivals=10)
        b = ChaosPlan.generate(7, 4, events=6, arrivals=10)
        assert a.to_dict() == b.to_dict()
        assert ChaosPlan.generate(8, 4, events=6).to_dict() != a.to_dict()

    def test_round_trip(self):
        plan = ChaosPlan.generate(3, 4, events=6)
        again = ChaosPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert again.to_dict() == plan.to_dict()
        assert again.describe() == plan.describe()

    def test_specs_are_time_ordered(self):
        plan = ChaosPlan.generate(11, 8, events=8)
        clocks = [s.at_clock for s in plan.specs]
        assert clocks == sorted(clocks)

    def test_at_most_one_event_per_kind_and_host(self):
        plan = ChaosPlan.generate(5, 2, events=40)
        pairs = [(s.kind, s.host_id) for s in plan.specs]
        assert len(pairs) == len(set(pairs))

    def test_for_host_returns_only_shard_kinds(self):
        plan = ChaosPlan(
            specs=[
                ChaosSpec(kind=ChaosKind.HOST_CRASH, host_id=1, at_clock=0.2),
                ChaosSpec(kind=ChaosKind.WORKER_DEATH, host_id=1, at_clock=0.1),
                ChaosSpec(kind=ChaosKind.DIGEST_CORRUPTION, host_id=1),
                ChaosSpec(kind=ChaosKind.UE_STORM, host_id=2, ue_errors=2),
            ]
        )
        kinds = [s.kind for s in plan.for_host(1)]
        assert kinds == [ChaosKind.WORKER_DEATH, ChaosKind.HOST_CRASH]
        assert plan.for_host(0) == ()

    def test_stalls_sorted_by_arrival(self):
        plan = ChaosPlan(
            specs=[
                ChaosSpec(
                    kind=ChaosKind.QUEUE_STALL, host_id=-1, at_clock=0.01,
                    arrival_index=9, stall_s=0.001, stall_width=1,
                ),
                ChaosSpec(
                    kind=ChaosKind.QUEUE_STALL, host_id=-1, at_clock=0.02,
                    arrival_index=2, stall_s=0.001, stall_width=1,
                ),
            ]
        )
        assert [s.arrival_index for s in plan.stalls()] == [2, 9]

    def test_generated_corruption_rides_with_a_crash(self):
        # Sweep seeds: wherever a corruption is planned, the same host
        # must also crash — corruption only bites during evacuation.
        for seed in range(30):
            plan = ChaosPlan.generate(seed, 4, events=8)
            for spec in plan.specs:
                if spec.kind is ChaosKind.DIGEST_CORRUPTION:
                    assert any(
                        s.kind is ChaosKind.HOST_CRASH
                        and s.host_id == spec.host_id
                        for s in plan.specs
                    ), f"seed {seed}: lone corruption on host {spec.host_id}"

    def test_corruption_for(self):
        plan = ChaosPlan(
            specs=[
                ChaosSpec(
                    kind=ChaosKind.DIGEST_CORRUPTION, host_id=3, flip_offset=99
                )
            ]
        )
        assert plan.corruption_for(3).flip_offset == 99
        assert plan.corruption_for(1) is None

    def test_spec_validation(self):
        with pytest.raises(ChaosError):
            ChaosSpec(kind=ChaosKind.QUEUE_STALL, host_id=0, stall_s=1, stall_width=1)
        with pytest.raises(ChaosError):
            ChaosSpec(kind=ChaosKind.QUEUE_STALL, host_id=-1, stall_s=0, stall_width=1)
        with pytest.raises(ChaosError):
            ChaosSpec(kind=ChaosKind.WORKER_DEATH, host_id=0, kills=0)
        with pytest.raises(ChaosError):
            ChaosSpec(kind=ChaosKind.UE_STORM, host_id=0, ue_errors=0)
        with pytest.raises(ChaosError):
            ChaosSpec(kind=ChaosKind.HOST_CRASH, host_id=-1)
        with pytest.raises(ChaosError):
            ChaosSpec(kind=ChaosKind.HOST_CRASH, host_id=0, at_clock=-1.0)

    def test_generate_validation(self):
        with pytest.raises(ChaosError):
            ChaosPlan.generate(0, 0)
        with pytest.raises(ChaosError):
            ChaosPlan.generate(0, 2, events=-1)
        with pytest.raises(ChaosError):
            ChaosPlan.generate(0, 2, kinds=())


# ---------------------------------------------------------------------------
# Supervisor (mini harness: module-level + picklable for fork workers)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _MiniSpec:
    host_id: int


@dataclass(frozen=True)
class _MiniVm:
    name: str


@dataclass(frozen=True)
class _MiniTask:
    spec: _MiniSpec
    vm_specs: tuple = ()
    #: Attempts that raise WorkerDeathError (os._exit(70) in a worker).
    die_attempts: int = 0
    #: Attempts that call os._exit mid-shard — a raw, unplanned worker
    #: kill with no exception and no result (parallel path only).
    hard_exit_attempts: int = 0
    #: Attempts that hang past any reasonable task timeout.
    hang_attempts: int = 0
    #: Attempts that raise an unexpected exception (worker crash-exit).
    crash_attempts: int = 0


def _mini_run(task: _MiniTask, attempt: int = 1) -> dict:
    if attempt <= task.hard_exit_attempts:
        os._exit(3)
    if attempt <= task.die_attempts:
        raise WorkerDeathError(f"planned death on attempt {attempt}")
    if attempt <= task.crash_attempts:
        raise RuntimeError("unexpected shard bug")
    if attempt <= task.hang_attempts:
        time.sleep(60.0)
    return {"host_id": task.spec.host_id, "ok": True, "attempt": attempt}


def _fast_policy(**kw) -> SupervisorPolicy:
    defaults = dict(task_timeout_s=30.0, max_attempts=3, backoff_s=0.0)
    defaults.update(kw)
    return SupervisorPolicy(**defaults)


class TestSupervisorSerial:
    def test_plain_success(self):
        sup = CampaignSupervisor(_mini_run, policy=_fast_policy())
        results, report = sup.run([_MiniTask(_MiniSpec(0))], workers=1)
        assert results == [{"host_id": 0, "ok": True, "attempt": 1}]
        assert report.retried == 0 and report.worker_deaths == 0

    def test_on_result_sees_each_completion(self):
        seen = []
        sup = CampaignSupervisor(_mini_run, policy=_fast_policy())
        tasks = [_MiniTask(_MiniSpec(i)) for i in range(3)]
        results, _ = sup.run(tasks, workers=1, on_result=seen.append)
        assert seen == results

    def test_policy_validation(self):
        with pytest.raises(ChaosError):
            SupervisorPolicy(task_timeout_s=0)
        with pytest.raises(ChaosError):
            SupervisorPolicy(max_attempts=0)
        with pytest.raises(ChaosError):
            SupervisorPolicy(backoff_s=-1)


#: ``WorkerDeathError`` ladder cases as (policy overrides, tasks).  Each
#: has two tasks, so ``workers=2`` really runs on the worker pool.
_LADDER_CASES = {
    "retried": (
        {},
        (_MiniTask(_MiniSpec(4), die_attempts=1), _MiniTask(_MiniSpec(5))),
    ),
    "gives-up": (
        {"max_attempts": 2},
        (
            _MiniTask(_MiniSpec(1), (_MiniVm("vm-a"),), die_attempts=99),
            _MiniTask(_MiniSpec(2)),
        ),
    ),
    "planned-death": (
        {},
        (
            _MiniTask(_MiniSpec(0), die_attempts=1),
            _MiniTask(_MiniSpec(1), die_attempts=2),
        ),
    ),
}


def _ladder(case: str, workers: int):
    overrides, tasks = _LADDER_CASES[case]
    sup = CampaignSupervisor(_mini_run, policy=_fast_policy(**overrides))
    return sup.run(list(tasks), workers=workers)


class TestRetryLadder:
    """Planned deaths on both paths: raised in-process at ``workers=1``,
    a real ``os._exit`` in a pooled worker at ``workers=2``."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_death_is_retried(self, workers):
        results, report = _ladder("retried", workers)
        assert results[0]["ok"] and results[0]["attempt"] == 2
        assert results[1]["ok"] and results[1]["attempt"] == 1
        assert report.retried == 1 and report.worker_deaths == 1
        assert report.outcomes[0].attempts == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_gives_up_after_max_attempts(self, workers):
        results, report = _ladder("gives-up", workers)
        assert results[0]["ok"] is False and results[0]["gave_up"]
        assert results[0]["vms"] == ["vm-a"]
        assert results[1]["ok"]
        assert report.outcomes[0].gave_up
        assert report.worker_deaths == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_planned_death_retries_every_attempt(self, workers):
        results, report = _ladder("planned-death", workers)
        assert results[0]["attempt"] == 2
        assert results[1]["attempt"] == 3
        assert report.worker_deaths == 3

    @pytest.mark.parametrize("case", sorted(_LADDER_CASES))
    def test_serial_and_pool_paths_agree(self, case):
        serial_results, serial_report = _ladder(case, 1)
        pool_results, pool_report = _ladder(case, 2)
        assert pool_results == serial_results
        assert pool_report.to_dict() == serial_report.to_dict()


class TestSupervisorParallel:
    """Raw kills, crashes and hangs in pooled workers (``workers=2``
    only: ``os._exit`` or a hang in-process would take pytest down)."""

    def test_results_keep_task_order(self):
        sup = CampaignSupervisor(_mini_run, policy=_fast_policy())
        tasks = [_MiniTask(_MiniSpec(i)) for i in (3, 0, 2, 1)]
        results, _ = sup.run(tasks, workers=2)
        assert [r["host_id"] for r in results] == [3, 0, 2, 1]

    def test_raw_mid_shard_kill_is_requeued_not_fatal(self):
        # The regression the supervisor exists for: a worker that dies
        # mid-shard (os._exit, no exception, no result) used to poison
        # pool.map and kill the whole campaign.
        sup = CampaignSupervisor(_mini_run, policy=_fast_policy())
        tasks = [
            _MiniTask(_MiniSpec(0), hard_exit_attempts=1),
            _MiniTask(_MiniSpec(1)),
        ]
        results, report = sup.run(tasks, workers=2)
        assert [r["host_id"] for r in results] == [0, 1]
        assert results[0]["ok"] and results[0]["attempt"] == 2
        assert results[1]["ok"] and results[1]["attempt"] == 1
        assert report.worker_deaths == 1 and report.retried == 1

    def test_crash_in_shard_is_retried(self):
        # len(tasks) <= 1 falls back to serial; force parallel with two.
        sup = CampaignSupervisor(_mini_run, policy=_fast_policy())
        results, report = sup.run(
            [_MiniTask(_MiniSpec(0), crash_attempts=1), _MiniTask(_MiniSpec(1))],
            workers=2,
        )
        assert results[0]["ok"] and results[0]["attempt"] == 2
        assert report.worker_deaths == 1

    def test_hung_shard_times_out_and_retries(self):
        sup = CampaignSupervisor(
            _mini_run, policy=_fast_policy(task_timeout_s=0.5)
        )
        tasks = [
            _MiniTask(_MiniSpec(0), hang_attempts=1),
            _MiniTask(_MiniSpec(1)),
        ]
        results, report = sup.run(tasks, workers=2)
        assert results[0]["ok"] and results[0]["attempt"] == 2
        assert report.timeouts == 1
        assert report.outcomes[0].timeouts == 1

    def test_gives_up_in_parallel_too(self):
        sup = CampaignSupervisor(
            _mini_run, policy=_fast_policy(max_attempts=2)
        )
        tasks = [
            _MiniTask(_MiniSpec(0), hard_exit_attempts=99),
            _MiniTask(_MiniSpec(1)),
        ]
        results, report = sup.run(tasks, workers=2)
        assert results[0]["gave_up"] and results[1]["ok"]
        assert report.outcomes[0].gave_up


# ---------------------------------------------------------------------------
# Checkpoint journal
# ---------------------------------------------------------------------------


class TestJournal:
    def _open(self, path, digest="d" * 64):
        journal = CampaignJournal(path)
        journal.open(digest)
        return journal

    def test_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = self._open(path)
        journal.record({"host_id": 0, "ok": True, "seed": 5})
        journal.record({"host_id": 2, "ok": False, "seed": 9})
        journal.close()
        loaded = CampaignJournal.load(path, "d" * 64)
        assert set(loaded) == {0, 2}
        assert loaded[0] == {"host_id": 0, "ok": True, "seed": 5}

    def test_truncated_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = self._open(path)
        journal.record({"host_id": 0, "ok": True})
        journal.close()
        with open(path, "a") as fh:
            fh.write('{"shard": 1, "result": {"host_id"')  # mid-write kill
        loaded = CampaignJournal.load(path)
        assert set(loaded) == {0}

    def test_later_checkpoint_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = self._open(path)
        journal.record({"host_id": 0, "ok": False, "attempt": 1})
        journal.record({"host_id": 0, "ok": True, "attempt": 2})
        journal.close()
        assert CampaignJournal.load(path)[0]["ok"] is True

    def test_config_digest_mismatch_refuses_resume(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._open(path, "a" * 64).close()
        with pytest.raises(ChaosError, match="different campaign"):
            CampaignJournal.load(path, "b" * 64)
        with pytest.raises(ChaosError, match="different campaign"):
            CampaignJournal(path).open("b" * 64)

    def test_not_a_journal(self, tmp_path):
        path = tmp_path / "nope.jsonl"
        path.write_text('{"some": "json"}\n')
        with pytest.raises(ChaosError, match="not a campaign journal"):
            CampaignJournal.load(path)
        with pytest.raises(ChaosError):
            CampaignJournal.load(tmp_path / "missing.jsonl")

    def test_reopen_appends_after_header_check(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = self._open(path)
        journal.record({"host_id": 0, "ok": True})
        journal.close()
        journal = self._open(path)  # resume: validates, appends
        journal.record({"host_id": 1, "ok": True})
        journal.close()
        assert set(CampaignJournal.load(path)) == {0, 1}
        assert len(path.read_text().splitlines()) == 3  # one header only

    def test_config_digest_ignores_execution_details(self):
        base = _config_dict(ClusterConfig(hosts=2, vms=4))
        w4 = _config_dict(ClusterConfig(hosts=2, vms=4, workers=4))
        vec = _config_dict(ClusterConfig(hosts=2, vms=4, backend="vectorized"))
        other = _config_dict(ClusterConfig(hosts=3, vms=4))
        assert config_digest(base) == config_digest(w4) == config_digest(vec)
        assert config_digest(base) != config_digest(other)


# ---------------------------------------------------------------------------
# Isolation auditor
# ---------------------------------------------------------------------------


class _FakeVm:
    def __init__(self, name, groups):
        self.name = name
        self.reserved_groups = frozenset(groups)
        self.backing = []


class _FakeHv:
    def __init__(self, vms):
        self.vms = {vm.name: vm for vm in vms}


class _FakeHost:
    def __init__(self, host_id, vms):
        self.host_id = host_id
        self.hv = _FakeHv(vms)


class TestIsolationAuditor:
    def test_clean_fleet_audits_clean(self):
        fleet = Fleet.boot(2, seed=31)
        fleet.host(0).create_vm(VmSpec(name="a", memory_bytes=1 * MiB))
        fleet.host(1).create_vm(VmSpec(name="b", memory_bytes=2 * MiB))
        auditor = IsolationAuditor(fleet)
        report = auditor.audit("placement")
        assert report.clean
        assert report.hosts_audited == 2
        assert report.to_dict()["violations"] == 0
        assert auditor.reports == [report]

    def test_exclude_skips_crashed_hosts(self):
        fleet = Fleet.boot(2, seed=31)
        auditor = IsolationAuditor(fleet, exclude=(0,))
        assert auditor.audit("final").hosts_audited == 1

    def test_detects_shared_tenant_group(self):
        fleet = _FakeFleet(
            [_FakeHost(0, [_FakeVm("a", {(0, 1)}), _FakeVm("b", {(0, 1)})])]
        )
        findings = IsolationAuditor._check_tenant_groups(fleet.hosts[0])
        assert len(findings) == 1
        assert findings[0].check == "tenant-groups"
        assert "'a'" in findings[0].detail and "'b'" in findings[0].detail

    def test_audit_emits_event_and_metrics(self):
        obs.enable(reset=True)
        try:
            fleet = Fleet.boot(1, seed=31)
            IsolationAuditor(fleet).audit("placement")
            events = [
                e for e in obs.tracer().events() if e.kind == "audit"
            ]
            assert len(events) == 1
            assert events[0].phase == "placement"
            assert events[0].violations == 0
            assert obs.METRICS.counter("audit.audits").value == 1
        finally:
            obs.disable()


class _FakeFleet:
    def __init__(self, hosts):
        self.hosts = hosts


# ---------------------------------------------------------------------------
# Chaos inside a host shard (run_host_task semantics)
# ---------------------------------------------------------------------------


def _host_task(chaos=(), host_id=0, vms=1):
    from repro.fleet.host import HostSpec, derive_host_seed

    return HostTask(
        spec=HostSpec(host_id=host_id, seed=derive_host_seed(0, host_id)),
        vm_specs=tuple(
            VmSpec(name=f"vm-{i:03d}", memory_bytes=1 * MiB) for i in range(vms)
        ),
        scenario="attack",
        budget=1,
        storm_errors=4,
        chaos=tuple(chaos),
    )


class TestRunHostTaskChaos:
    def test_worker_death_raises_until_kills_exhausted(self):
        task = _host_task(
            [ChaosSpec(kind=ChaosKind.WORKER_DEATH, host_id=0, kills=2)]
        )
        with pytest.raises(WorkerDeathError):
            run_host_task(task, attempt=1)
        with pytest.raises(WorkerDeathError):
            run_host_task(task, attempt=2)
        result = run_host_task(task, attempt=3)
        assert result["ok"]
        assert result["chaos"] == [{"chaos": "worker-death", "kills": 2}]

    def test_host_crash_returns_crashed_result(self):
        task = _host_task(
            [ChaosSpec(kind=ChaosKind.HOST_CRASH, host_id=0, at_clock=0.005)]
        )
        result = run_host_task(task)
        assert result["ok"] is False and result["crashed"]
        assert result["placed_bytes"] == 0
        assert result["vms"] == ["vm-000"]
        assert "host crash" in result["error"]

    def test_ue_storm_offlines_a_free_row_and_isolation_holds(self):
        task = _host_task(
            [ChaosSpec(kind=ChaosKind.UE_STORM, host_id=0, ue_errors=2)]
        )
        result = run_host_task(task)
        assert result["ok"], result.get("error")
        (note,) = result["chaos"]
        assert note["chaos"] == "ue-storm"
        assert note["ue_errors"] == 2
        # 2 UEs x ue_weight 8 crosses the offline threshold; the row was
        # free, so retirement completes without any migration.
        assert note["state"] == "offlined"
        assert any(v["ue"] >= 2 for v in note["health"].values())

    def test_guard_row_violation_fails_the_host(self, monkeypatch):
        # Every host task ends with the auditor's guard-row check (twin
        # admission has no driver-side audit); a finding fails the host.
        from repro.chaos import AuditFinding

        clean = run_host_task(_host_task())
        assert clean["ok"] and "audit" not in clean
        finding = AuditFinding(
            host_id=0, check="guard-rows", detail="guard range reopened"
        )
        monkeypatch.setattr(
            IsolationAuditor, "check_guard_rows",
            staticmethod(lambda host: [finding]),
        )
        result = run_host_task(_host_task())
        assert result["ok"] is False
        assert "isolation audit: 1 guard-row violation(s)" in result["error"]

    def test_chaos_results_are_attempt_pure(self):
        task = _host_task(
            [ChaosSpec(kind=ChaosKind.UE_STORM, host_id=0, ue_errors=2)]
        )
        assert run_host_task(task, attempt=1) == run_host_task(task, attempt=2)


# ---------------------------------------------------------------------------
# Migration digest corruption (satellite: rollback under injected fault)
# ---------------------------------------------------------------------------


def _flip_one_byte(buffers):
    name = sorted(buffers)[0]
    buffers[name][0] ^= 0xFF


class TestDigestCorruptionRollback:
    def _fleet_with_vm(self):
        fleet = Fleet.boot(2, seed=71)
        src = fleet.host(0)
        vm = src.create_vm(VmSpec(name="tenant", memory_bytes=1 * MiB))
        src.hv.machine.dram.write(vm.backing[0].start, b"payload!" * 8)
        return fleet, src, fleet.host(1)

    def test_migrate_vm_rolls_back_and_source_keeps_serving(self):
        fleet, src, dst = self._fleet_with_vm()
        before = src.hv.machine.dram.read_region(
            src.hv.vm("tenant").backing[0].start, 64
        )
        with pytest.raises(MigrationError, match="failed verification"):
            migrate_vm(src, dst, "tenant", corrupt=_flip_one_byte)
        # Source untouched and still serving its data.
        assert "tenant" in src.hv.vms
        assert "tenant" not in dst.hv.vms
        after = src.hv.machine.dram.read_region(
            src.hv.vm("tenant").backing[0].start, 64
        )
        assert after == before
        # And the isolation invariants held through the rollback.
        report = IsolationAuditor(fleet).audit("post-rollback")
        assert report.clean, [f.detail for f in report.findings]

    def test_evacuate_host_records_incident_and_retries_clean(self):
        fleet, src, dst = self._fleet_with_vm()
        records, incidents = evacuate_host(
            fleet, src, make_scheduler("best-fit"), corrupt=_flip_one_byte
        )
        assert [i["incident"] for i in incidents] == [
            "digest-corruption-rollback"
        ]
        # The clean retry completed the move.
        assert [r.vm for r in records] == ["tenant"]
        assert records[0].verified
        assert "tenant" in dst.hv.vms and "tenant" not in src.hv.vms
        report = IsolationAuditor(fleet, exclude=(0,)).audit("post-evac")
        assert report.clean


# ---------------------------------------------------------------------------
# Chaos campaigns end to end
# ---------------------------------------------------------------------------

#: Seed whose generated plan covers all five chaos kinds at 4 hosts
#: (asserted below so a generator change can't silently gut coverage).
FULL_COVERAGE_SEED = 0

_CAMPAIGN = dict(hosts=4, vms=10, budget=1)


def _chaos_campaign(chaos_seed=FULL_COVERAGE_SEED, **kw) -> ClusterCampaign:
    config = ClusterConfig(**{**_CAMPAIGN, **kw})
    plan = ChaosPlan.generate(
        chaos_seed, config.hosts, events=6, arrivals=config.vms
    )
    return ClusterCampaign(config, plan)


class TestChaosCampaign:
    def test_coverage_seed_covers_every_kind(self):
        plan = ChaosPlan.generate(FULL_COVERAGE_SEED, 4, events=6, arrivals=10)
        assert {s.kind for s in plan.specs} == set(ChaosKind)

    def test_campaign_survives_chaos_and_audits_clean(self):
        report = _chaos_campaign().run()
        # Crashed hosts are degraded outcomes, not campaign failures.
        assert report.summary["hosts_crashed"] >= 1
        assert report.unplanned_failures == 0
        assert report.degraded["crashed_hosts"]
        assert report.summary["audit_clean"]
        phases = [a["phase"] for a in report.audit]
        assert phases[0] == "placement" and phases[-1] == "final"
        assert any(p.startswith("evacuation:") for p in phases)
        assert report.supervision["worker_deaths"] >= 1

    def test_digest_identical_across_worker_counts(self):
        serial = _chaos_campaign(workers=1).run()
        parallel = _chaos_campaign(workers=2).run()
        assert serial.merge_digest == parallel.merge_digest
        # Supervision is execution metadata: present, but never hashed.
        assert serial.supervision["outcomes"]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_chaos_digest_identical_across_workers_and_backends(
        self, shards
    ):
        reference = _chaos_campaign(shards=shards).run()
        assert reference.degraded["crashed_hosts"]
        for kw in ({"workers": 2}, {"workers": 2, "backend": "vectorized"}):
            variant = _chaos_campaign(shards=shards, **kw).run()
            assert variant.merge_digest == reference.merge_digest

    def test_queue_stall_forces_final_backpressure_rejections(self):
        campaign = ClusterCampaign(
            ClusterConfig(hosts=2, vms=8, budget=1, queue_depth=2),
            ChaosPlan(
                specs=[
                    ChaosSpec(
                        kind=ChaosKind.QUEUE_STALL, host_id=-1,
                        arrival_index=2, stall_s=0.002, stall_width=4,
                    )
                ]
            ),
        )
        report = campaign.run()
        # Inside the wedged window a full queue's rejection is final.
        assert report.summary["rejected_by_reason"].get("queue-full", 0) >= 1
        assert report.summary["arrivals"] == 8

    def test_stall_wedges_only_its_shard(self):
        # Arrival 2 lands on shard 0, whose next four arrivals (2, 4,
        # 6, 8) queue undrained; at depth 2, two of them bounce — and
        # shard 1 keeps draining.
        seen = []
        campaign = ClusterCampaign(
            ClusterConfig(hosts=2, vms=12, budget=1, queue_depth=2,
                          shards=2),
            ChaosPlan(
                specs=[
                    ChaosSpec(
                        kind=ChaosKind.QUEUE_STALL, host_id=-1,
                        arrival_index=2, stall_s=0.002, stall_width=4,
                    )
                ]
            ),
        )
        campaign.place()
        for shard in campaign.shards:
            seen.append(shard.controller.rejected_by_reason().get("queue-full", 0))
        assert seen == [2, 0]

    def test_resume_from_partial_journal_is_bit_identical(self, tmp_path):
        full = tmp_path / "full.jsonl"
        baseline = _chaos_campaign().run(journal_path=str(full))

        # Keep the header and the first completed shard: the journal a
        # SIGKILL right after the first checkpoint would leave behind.
        partial = tmp_path / "partial.jsonl"
        lines = full.read_text().splitlines()
        partial.write_text("\n".join(lines[:2]) + "\n")

        campaign = _chaos_campaign()
        resumed = campaign.run(resume_path=str(partial))
        assert campaign.resumed_shards == 1
        assert resumed.merge_digest == baseline.merge_digest
        # The resumed journal now holds every shard.
        loaded = CampaignJournal.load(partial)
        assert len(loaded) == _CAMPAIGN["hosts"]

    def test_resume_at_two_shards_is_bit_identical(self, tmp_path):
        full = tmp_path / "full.jsonl"
        baseline = _chaos_campaign(shards=2).run(journal_path=str(full))
        partial = tmp_path / "partial.jsonl"
        partial.write_text("\n".join(full.read_text().splitlines()[:3]) + "\n")
        campaign = _chaos_campaign(shards=2, workers=2)
        resumed = campaign.run(resume_path=str(partial))
        assert campaign.resumed_shards == 2
        assert resumed.merge_digest == baseline.merge_digest
        assert resumed.degraded == baseline.degraded

    def test_resume_refuses_mismatched_config(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        _chaos_campaign().run(journal_path=str(journal))
        with pytest.raises(ChaosError, match="different campaign"):
            _chaos_campaign(FULL_COVERAGE_SEED + 1).run(
                resume_path=str(journal)
            )
        with pytest.raises(ChaosError, match="different campaign"):
            _chaos_campaign(shards=2).run(resume_path=str(journal))

    def test_resume_tolerates_different_worker_count(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        baseline = _chaos_campaign().run(journal_path=str(journal))
        resumed = _chaos_campaign(workers=2).run(resume_path=str(journal))
        assert resumed.merge_digest == baseline.merge_digest

    def test_chaos_events_reach_obs(self):
        obs.enable(reset=True)
        try:
            _chaos_campaign().run()
            chaos_kinds = {
                e.chaos for e in obs.tracer().events() if e.kind == "chaos"
            }
            assert "worker-death" in chaos_kinds
            assert "host-crash" in chaos_kinds
            assert obs.METRICS.counter("audit.audits").value >= 2
        finally:
            obs.disable()


# ---------------------------------------------------------------------------
# SIGKILL + resume through the real CLI (the acceptance criterion)
# ---------------------------------------------------------------------------


def _running(pid: int) -> bool:
    """True while *pid* runs; a zombie awaiting its reaper has exited."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


@pytest.mark.tier2
@pytest.mark.parametrize("workers", [1, 2])
def test_cli_sigkill_and_resume_reproduces_digest(tmp_path, workers):
    """Kill a journaled chaos campaign mid-run with SIGKILL, resume it,
    and require the merged digest to equal an uninterrupted run's.  No
    pool worker may outlive the killed driver."""
    import signal
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH="src")
    base = [
        sys.executable, "-m", "repro", "fleet",
        "--hosts", "4", "--vms", "10", "--budget", "1",
        "--chaos-seed", str(FULL_COVERAGE_SEED), "--chaos-events", "6",
        "--workers", str(workers),
    ]

    full = subprocess.run(
        base, capture_output=True, text=True, env=env, timeout=600
    )
    assert full.returncode == 0, full.stderr
    (digest_line,) = [
        line for line in full.stdout.splitlines() if "merge digest" in line
    ]

    journal = tmp_path / "campaign.jsonl"
    proc = subprocess.Popen(
        base + ["--journal", str(journal)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
    )
    try:
        deadline = time.monotonic() + 300
        while time.monotonic() < deadline:
            if journal.exists() and len(journal.read_text().splitlines()) >= 2:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.05)
        else:
            pytest.fail("journal never got its first checkpoint")
        assert proc.poll() is None, "campaign finished before the kill"
        children_file = f"/proc/{proc.pid}/task/{proc.pid}/children"
        workers_before_kill = []
        if os.path.exists(children_file):
            with open(children_file) as f:
                workers_before_kill = [int(p) for p in f.read().split()]
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.wait(timeout=60)

    deadline = time.monotonic() + 5
    while time.monotonic() < deadline and any(map(_running, workers_before_kill)):
        time.sleep(0.05)
    orphans = [pid for pid in workers_before_kill if _running(pid)]
    assert not orphans, f"pool workers {orphans} outlived the SIGKILLed driver"

    resumed = subprocess.run(
        base + ["--resume", str(journal)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert resumed.returncode == 0, resumed.stderr
    assert "resume:" in resumed.stdout
    assert digest_line in resumed.stdout
