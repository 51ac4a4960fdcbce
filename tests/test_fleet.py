"""Tests for the multi-host fleet simulator (``repro.fleet``)."""

import pytest

from repro.core import SilozHypervisor
from repro.errors import FleetError, IsolationViolation, PlacementError
from repro.hv import BaselineHypervisor, Machine, VmSpec
from repro.units import PAGE_4K, KiB, MiB
from repro.fleet import (
    AdmissionController,
    ClusterConfig,
    Fleet,
    Host,
    HostSpec,
    HostTask,
    MigrationError,
    RejectReason,
    derive_host_seed,
    evacuate_host,
    host_fits,
    iter_arrival_trace,
    make_scheduler,
    migrate_vm,
    run_cluster_campaign,
    run_host_task,
    StreamingMerge,
)


_PATTERN_BYTES = 64


def _page_pattern(gpa: int) -> bytes:
    """A pattern distinct for every 4 KiB guest page."""
    return (gpa // PAGE_4K).to_bytes(8, "little") * (_PATTERN_BYTES // 8)


def boot_fleet(n=2, **kw):
    return Fleet.boot(n, **kw)


def assert_fleet_isolated(fleet):
    for host in fleet.hosts:
        host.assert_isolation()


class TestCapacitySnapshot:
    """Satellite: ``Hypervisor.capacity()`` read-only snapshot."""

    def test_boot_state(self):
        hv = SilozHypervisor.boot(Machine.small())
        cap = hv.capacity()
        assert cap.total_guest_nodes > 0
        assert len(cap.free_guest_node_ids) == cap.total_guest_nodes
        assert cap.vm_count == 0
        assert cap.guard_row_bytes > 0
        assert cap.offlined_bytes >= cap.guard_row_bytes
        assert cap.free_guest_bytes > 0
        assert cap.backing_page_bytes == hv.backing_page_bytes

    def test_placement_shrinks_free_nodes(self):
        hv = SilozHypervisor.boot(Machine.small())
        before = hv.capacity()
        hv.create_vm(VmSpec(name="a", memory_bytes=1 * MiB))
        after = hv.capacity()
        assert after.vm_count == 1
        assert len(after.free_guest_node_ids) < len(before.free_guest_node_ids)
        assert after.free_guest_bytes < before.free_guest_bytes

    def test_teardown_restores_capacity(self):
        hv = SilozHypervisor.boot(Machine.small())
        before = hv.capacity()
        hv.create_vm(VmSpec(name="a", memory_bytes=1 * MiB))
        hv.destroy_vm("a")
        hv.release_reservation("a")
        after = hv.capacity()
        assert after.free_guest_node_ids == before.free_guest_node_ids
        assert after.free_guest_bytes == before.free_guest_bytes

    def test_snapshot_is_read_only_and_cheap(self):
        hv = SilozHypervisor.boot(Machine.small())
        clock = hv.machine.dram.clock
        cap = hv.capacity()
        assert hv.machine.dram.clock == clock  # no DRAM traffic
        with pytest.raises(Exception):
            cap.vm_count = 5  # frozen

    def test_baseline_hypervisor_has_no_guards(self):
        hv = BaselineHypervisor(Machine.small(), backing_page_bytes=64 * KiB)
        cap = hv.capacity()
        assert cap.guard_row_bytes == 0
        assert cap.total_guest_nodes == 0


class TestTypedPlacementError:
    """Satellite: capacity exhaustion raises a *typed* PlacementError."""

    def test_capacity_error_carries_group_counts(self):
        hv = SilozHypervisor.boot(Machine.small())
        free = hv.capacity().free_guest_bytes
        with pytest.raises(PlacementError) as err:
            hv.create_vm(VmSpec(name="huge", memory_bytes=free + 4 * MiB))
        assert err.value.is_capacity
        assert err.value.requested_groups >= 1
        assert err.value.available_groups >= 0
        assert err.value.requested_groups > err.value.available_groups

    def test_non_capacity_errors_are_distinguishable(self):
        hv = BaselineHypervisor(Machine.small())
        beyond = hv.machine.geom.sockets
        with pytest.raises(PlacementError) as err:
            hv.create_vm(VmSpec(name="nowhere", memory_bytes=2 * MiB, socket=beyond))
        assert not err.value.is_capacity
        assert err.value.requested_groups is None


class TestSeedDerivation:
    """Satellite: per-host seeds are stable under ``--workers`` changes."""

    def test_pure_function_of_fleet_seed_and_host_id(self):
        assert derive_host_seed(7, 3) == derive_host_seed(7, 3)
        assert derive_host_seed(7, 3) != derive_host_seed(7, 4)
        assert derive_host_seed(7, 3) != derive_host_seed(8, 3)

    def test_stable_across_interpreter_runs(self):
        """Regression: blake2b, not Python's salted ``hash`` — these
        constants must never change or old campaigns stop replaying."""
        assert derive_host_seed(0, 0) == 0x6A1A6C0078F57D11
        assert derive_host_seed(0, 0) == derive_host_seed(0, 0)
        assert derive_host_seed(0, 0) < 2**63

    def test_fleet_boot_uses_derived_seeds(self):
        fleet = boot_fleet(3, seed=42)
        for i, host in enumerate(fleet.hosts):
            assert host.spec.seed == derive_host_seed(42, i)

    def test_independent_of_pool_order(self):
        """Seeds come from host ids alone: deriving them in any order,
        any subset, any process yields the same values."""
        forward = [derive_host_seed(1, i) for i in range(4)]
        backward = [derive_host_seed(1, i) for i in reversed(range(4))]
        assert forward == list(reversed(backward))
        assert len(set(forward)) == 4


class TestSchedulers:
    def test_best_fit_packs(self):
        fleet = boot_fleet(2)
        sched = make_scheduler("best-fit")
        h1 = sched.place(fleet, VmSpec(name="a", memory_bytes=1 * MiB))
        h2 = sched.place(fleet, VmSpec(name="b", memory_bytes=1 * MiB))
        assert h1.host_id == h2.host_id

    def test_spread_balances(self):
        fleet = boot_fleet(2)
        sched = make_scheduler("spread")
        h1 = sched.place(fleet, VmSpec(name="a", memory_bytes=1 * MiB))
        h2 = sched.place(fleet, VmSpec(name="b", memory_bytes=1 * MiB))
        assert h1.host_id != h2.host_id

    def test_first_fit_prefers_lowest_id(self):
        fleet = boot_fleet(3)
        sched = make_scheduler("first-fit")
        for name in ("a", "b"):
            host = sched.place(fleet, VmSpec(name=name, memory_bytes=1 * MiB))
            assert host.host_id == 0

    def test_fleet_exhaustion_raises_typed_error(self):
        fleet = boot_fleet(1)
        sched = make_scheduler("first-fit")
        free = fleet.host(0).capacity().free_guest_bytes
        with pytest.raises(PlacementError) as err:
            sched.place(fleet, VmSpec(name="huge", memory_bytes=free + 4 * MiB))
        assert err.value.is_capacity

    def test_exclude_is_honoured(self):
        fleet = boot_fleet(2)
        sched = make_scheduler("first-fit")
        spec = VmSpec(name="a", memory_bytes=1 * MiB)
        ranked = sched.rank(fleet, spec, exclude=(0,))
        assert [h.host_id for h in ranked] == [1]

    def test_misaligned_spec_fits_nowhere(self):
        fleet = boot_fleet(1)
        spec = VmSpec(name="odd", memory_bytes=3 * KiB)
        assert not host_fits(fleet.host(0), spec)

    def test_unknown_policy(self):
        with pytest.raises(FleetError):
            make_scheduler("worst-fit")

    def test_placement_preserves_isolation(self):
        fleet = boot_fleet(2)
        sched = make_scheduler("best-fit")
        for spec in iter_arrival_trace(3, 6):
            try:
                sched.place(fleet, spec)
            except PlacementError as exc:
                assert exc.is_capacity
        assert_fleet_isolated(fleet)


class TestAdmission:
    def test_queue_full_backpressure(self):
        fleet = boot_fleet(1)
        ctl = AdmissionController(fleet, make_scheduler("first-fit"), queue_depth=2)
        specs = list(iter_arrival_trace(0, 3))
        assert ctl.submit(specs[0])
        assert ctl.submit(specs[1])
        assert not ctl.submit(specs[2])  # bounded queue rejects at the door
        rejected = [d for d in ctl.decisions if not d.admitted]
        assert [d.reason for d in rejected] == [RejectReason.QUEUE_FULL]

    def test_invalid_spec_is_typed(self):
        fleet = boot_fleet(1)
        ctl = AdmissionController(fleet, make_scheduler("first-fit"))
        ctl.submit(VmSpec(name="odd", memory_bytes=3 * KiB))
        (decision,) = ctl.drain()
        assert not decision.admitted
        assert decision.reason is RejectReason.INVALID_SPEC

    def test_retries_exhausted_carries_shortfall(self):
        fleet = boot_fleet(1)
        free = fleet.host(0).capacity().free_guest_bytes
        ctl = AdmissionController(
            fleet, make_scheduler("first-fit"), max_retries=2
        )
        ctl.submit(VmSpec(name="huge", memory_bytes=free + 4 * MiB))
        (decision,) = ctl.drain()
        assert not decision.admitted
        assert decision.reason is RejectReason.RETRIES_EXHAUSTED
        assert decision.attempts == 3  # initial try + 2 retries
        assert decision.requested_groups is not None
        assert decision.available_groups is not None

    def test_retry_backoff_advances_simulated_time(self):
        fleet = boot_fleet(1)
        free = fleet.host(0).capacity().free_guest_bytes
        before = fleet.host(0).hv.machine.dram.clock
        ctl = AdmissionController(fleet, make_scheduler("first-fit"), max_retries=1)
        ctl.submit(VmSpec(name="huge", memory_bytes=free + 4 * MiB))
        ctl.drain()
        assert fleet.host(0).hv.machine.dram.clock > before

    def test_acceptance_accounting(self):
        fleet = boot_fleet(2)
        ctl = AdmissionController(fleet, make_scheduler("best-fit"))
        for spec in iter_arrival_trace(0, 4):
            ctl.submit(spec)
        ctl.drain()
        assert ctl.rejected_by_reason() == {}
        ctl.submit(VmSpec(name="odd", memory_bytes=3 * KiB))
        ctl.drain()
        assert ctl.rejected_by_reason() == {"invalid-spec": 1}


class TestIsolationInvariant:
    def test_clean_fleet_passes(self):
        fleet = boot_fleet(2)
        make_scheduler("spread").place(fleet, VmSpec(name="a", memory_bytes=1 * MiB))
        assert_fleet_isolated(fleet)

    def test_forged_double_reservation_is_caught(self):
        fleet = boot_fleet(1)
        host = fleet.host(0)
        a = host.create_vm(VmSpec(name="a", memory_bytes=1 * MiB))
        b = host.create_vm(VmSpec(name="b", memory_bytes=1 * MiB))
        b.reserved_groups = a.reserved_groups  # simulate a placement bug
        with pytest.raises(IsolationViolation):
            host.assert_isolation()


class TestMigration:
    def test_contents_survive_the_move(self):
        fleet = boot_fleet(2)
        src, dst = fleet.host(0), fleet.host(1)
        vm = src.create_vm(VmSpec(name="tenant", memory_bytes=1 * MiB))
        written = {}
        for name, gpa, hpa, size in vm.extents():
            for off in range(0, size, PAGE_4K):
                pattern = _page_pattern(gpa + off)
                src.hv.machine.dram.write(hpa + off, pattern)
                written[(name, gpa + off)] = pattern

        record = migrate_vm(src, dst, "tenant")
        assert record.verified and record.bytes_copied > 0
        assert "tenant" not in src.hv.vms and "tenant" not in src.vm_specs
        moved = dst.hv.vm("tenant")
        seen = {}
        for name, gpa, hpa, size in moved.extents():
            for off in range(0, size, PAGE_4K):
                got = dst.hv.machine.dram.read(hpa + off, _PATTERN_BYTES)
                seen[(name, gpa + off)] = bytes(got)
        assert seen == written

    def _remediated_tenant(self):
        """A 2 MiB tenant whose middle RAM page was live-migrated within
        its host, so its backing is no longer in host-address order;
        each page carries its own pattern."""
        from repro.core.remediation import offline_row_group_live

        fleet = boot_fleet(2)
        src = fleet.host(0)
        vm = src.create_vm(VmSpec(name="tenant", memory_bytes=2 * MiB))
        page = src.hv.backing_page_bytes
        gpas = range(0, 2 * MiB, page)
        for gpa in gpas:
            vm.write(gpa, _page_pattern(gpa))
        media = src.hv.machine.mapping.decode(vm.translate(1 * MiB))
        report = offline_row_group_live(src.hv, media.socket, media.row)
        assert report.complete and report.migrated
        return fleet, vm, gpas

    def test_remediated_vm_migrates_every_page_to_its_gpa(self):
        fleet, _, gpas = self._remediated_tenant()
        record = migrate_vm(fleet.host(0), fleet.host(1), "tenant")
        assert record.verified
        moved = fleet.host(1).hv.vm("tenant")
        wrong = [
            gpa for gpa in gpas
            if moved.read(gpa, _PATTERN_BYTES) != _page_pattern(gpa)
        ]
        assert wrong == []

    def test_remediated_vm_walks_agree_with_the_ept(self):
        from repro.workloads.trace import GpaTranslator

        _, vm, gpas = self._remediated_tenant()
        translator = GpaTranslator(vm)
        assert [g for g in gpas if translator.translate(g) != vm.translate(g)] == []
        for _, gpa, hpa, _ in vm.extents():
            assert vm.translate(gpa) == hpa

    def test_remediated_vm_passthrough_iommu_agrees_with_the_ept(self):
        fleet, vm, gpas = self._remediated_tenant()
        dev = fleet.host(0).hv.attach_passthrough_device("tenant", "vf0")
        assert [g for g in gpas if dev.domain.translate(g) != vm.translate(g)] == []

    def test_isolation_holds_on_both_hosts(self):
        fleet = boot_fleet(2)
        src, dst = fleet.host(0), fleet.host(1)
        src.create_vm(VmSpec(name="a", memory_bytes=1 * MiB))
        dst.create_vm(VmSpec(name="b", memory_bytes=1 * MiB))
        migrate_vm(src, dst, "a")
        assert_fleet_isolated(fleet)
        assert {g for v in dst.hv.vms.values() for g in v.reserved_groups}

    def test_destination_full_leaves_source_untouched(self):
        fleet = boot_fleet(2)
        src, dst = fleet.host(0), fleet.host(1)
        src.create_vm(VmSpec(name="tenant", memory_bytes=1 * MiB))
        page = dst.hv.backing_page_bytes
        hog_bytes = (dst.capacity().free_guest_bytes // page - 2) * page
        dst.create_vm(VmSpec(name="hog", memory_bytes=hog_bytes))
        with pytest.raises(MigrationError):
            migrate_vm(src, dst, "tenant")
        assert "tenant" in src.hv.vms
        assert "tenant" in src.vm_specs
        src.assert_isolation()

    def test_same_host_rejected(self):
        fleet = boot_fleet(1)
        fleet.host(0).create_vm(VmSpec(name="a", memory_bytes=1 * MiB))
        with pytest.raises(MigrationError):
            migrate_vm(fleet.host(0), fleet.host(0), "a")

    def test_passthrough_device_blocks_migration(self):
        fleet = boot_fleet(2)
        vm = fleet.host(0).create_vm(VmSpec(name="a", memory_bytes=1 * MiB))
        vm.devices.append(object())  # any attached passthrough device
        with pytest.raises(MigrationError):
            migrate_vm(fleet.host(0), fleet.host(1), "a")


class TestEvacuation:
    def test_evacuation_unblocks_deferred_offline(self):
        """The fleet remedy for a deferred offlining (§ CE-storm PR):
        move the tenant off-host, then the parked remediation completes."""
        from repro.core.remediation import offline_row_group_live

        fleet = boot_fleet(2)
        src, dst = fleet.host(0), fleet.host(1)
        vm = src.create_vm(VmSpec(name="tenant", memory_bytes=1 * MiB))
        table_page = next(iter(vm.ept.table_pages))
        media = src.hv.machine.dram.mapping.decode(table_page)
        report = offline_row_group_live(src.hv, media.socket, media.row)
        assert report.deferred, "expected the EPT table page to defer"
        assert src.degraded

        records, incidents = evacuate_host(fleet, src, make_scheduler("best-fit"))
        assert [r.vm for r in records] == ["tenant"] and incidents == []
        assert records[0].dst_host == dst.host_id
        assert src.degraded  # the parked offlining waits for its retry
        src.monitor.retry_deferred()
        assert not src.degraded  # retry completed after the evacuation
        assert "tenant" in dst.hv.vms
        assert_fleet_isolated(fleet)


def _campaign(**kw):
    """Run a campaign; returns (report, host results in host-id order)."""
    results: list = []
    report = run_cluster_campaign(ClusterConfig(**kw), on_result=results.append)
    return report, sorted(results, key=lambda r: r["host_id"])


class TestCampaignDriver:
    def test_workers_merge_bit_identically(self):
        base = dict(hosts=2, vms=4, budget=1, seed=3)
        serial, serial_hosts = _campaign(workers=1, **base)
        parallel, parallel_hosts = _campaign(workers=2, **base)
        assert serial.merge_digest == parallel.merge_digest
        assert serial_hosts == parallel_hosts

    def test_backends_merge_bit_identically(self):
        base = dict(hosts=2, vms=4, budget=1, seed=3)
        scalar, scalar_hosts = _campaign(backend="scalar", **base)
        vector, vector_hosts = _campaign(backend="vectorized", **base)
        assert scalar.merge_digest == vector.merge_digest
        assert scalar_hosts == vector_hosts

    def test_worker_failure_is_graceful(self):
        task = HostTask(
            spec=HostSpec(host_id=0),
            vm_specs=(),
            scenario="no-such-scenario",
            budget=1,
            storm_errors=5,
        )
        result = run_host_task(task)
        assert result["ok"] is False
        assert "FleetError" in result["error"]
        fold = StreamingMerge({"policy": "best-fit"})
        fold.add_host_result(result)
        assert fold.hosts_failed == 1

    def test_health_scenario_offlines_per_host(self):
        report, hosts = _campaign(hosts=2, vms=2, scenario="health", workers=1)
        busy = [r for r in hosts if not r["idle"]]
        assert busy, "expected at least one host with tenants"
        assert all(r["ok"] for r in hosts)
        assert all(r["offlined"] or r["deferred_blocks"] for r in busy)

    def test_config_validation(self):
        with pytest.raises(FleetError):
            ClusterConfig(hosts=0)
        with pytest.raises(FleetError):
            ClusterConfig(workers=0)
        with pytest.raises(FleetError):
            ClusterConfig(scenario="bogus")
        with pytest.raises(FleetError, match="queue_depth"):
            ClusterConfig(queue_depth=0)
        with pytest.raises(FleetError, match="max_retries"):
            ClusterConfig(max_retries=-1)

    def test_digest_ignores_worker_count(self):
        a = StreamingMerge(ClusterConfig(workers=1))
        b = StreamingMerge(ClusterConfig(workers=4))
        assert a.merge_digest() == b.merge_digest()

    def test_arrival_trace_is_deterministic(self):
        assert list(iter_arrival_trace(5, 10)) == list(iter_arrival_trace(5, 10))
        assert list(iter_arrival_trace(5, 10)) != list(iter_arrival_trace(6, 10))


class TestFleetObservability:
    def test_fleet_ops_emit_typed_events(self, tmp_path):
        from repro import obs
        from repro.obs.export import read_jsonl, write_jsonl

        obs.enable(reset=True)
        try:
            fleet = boot_fleet(2)
            ctl = AdmissionController(fleet, make_scheduler("spread"))
            for spec in iter_arrival_trace(0, 2):
                ctl.submit(spec)
            ctl.drain()
            migrate_vm(fleet.host(0), fleet.host(1), ctl.decisions[0].vm)

            events = list(obs.tracer().events())
            kinds = {type(e).__name__ for e in events}
            assert {"PlacementEvent", "AdmissionEvent", "VmMigrationEvent"} <= kinds
            snap = obs.metrics_snapshot()
            assert snap["counters"]["fleet.placements"] >= 2
            assert snap["counters"]["fleet.admission.admitted"] == 2
            assert snap["counters"]["fleet.migrations"] == 1

            path = tmp_path / "fleet.jsonl"
            write_jsonl(path, events)
            assert len(read_jsonl(path)) == len(events)
        finally:
            obs.disable(reset=True)
