"""Cluster-scale fleet campaigns (``repro.fleet.cluster``) and the
streaming merge (``repro.fleet.report.StreamingMerge``).

The load-bearing claims pinned here:

- the logical capacity twins admit **exactly** what the real
  hypervisor-backed fleet admits (same decision stream, same per-host
  VM lists) under the drain-per-arrival protocol;
- the saturation fast path is bit-equivalent to scanning every host;
- the cluster merge digest is invariant under worker count, backend,
  and pool mode — and sensitive to seed and shard count;
- folding shards incrementally (any completion order) produces the
  same merge digest as the batch report replayed through the fold.
"""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.errors import FleetError
from repro.fleet import (
    AdmissionController,
    CampaignConfig,
    ClusterConfig,
    Fleet,
    FleetCampaign,
    StreamingMerge,
    generate_arrival_trace,
    iter_arrival_trace,
    make_scheduler,
    run_cluster_campaign,
)
from repro.fleet.cluster import (
    ClusterShard,
    LogicalFleet,
    measure_host_shape,
    shard_ranges,
)
from repro.fleet.report import host_result_digest, scrub_host_result


def _decision_tuple(d) -> tuple:
    return (d.vm, d.outcome, d.host_id, d.attempts)


# ---------------------------------------------------------------------------
# Logical twins vs the real fleet
# ---------------------------------------------------------------------------


class TestLogicalTwins:
    @pytest.mark.parametrize("mitigation", ["siloz", "catt", "domain-buddy"])
    @pytest.mark.parametrize("policy", ["first-fit", "best-fit", "spread"])
    def test_twin_admission_matches_real_fleet(self, policy, mitigation):
        # Drive an oversubscribed trace through admission twice — once
        # against real booted hosts, once against the logical twins —
        # with the same drain-per-arrival cadence.  Decisions and
        # per-host VM lists must be identical: the twin replays the
        # §5.3 arithmetic, it does not approximate it, for every
        # mitigation that gives each tenant whole group nodes.
        hosts, vms, seed = 3, 40, 7
        shape = measure_host_shape(mitigation=mitigation)
        real_fleet = Fleet.boot(hosts, seed=seed, mitigation=mitigation)
        real = AdmissionController(real_fleet, make_scheduler(policy))
        cfg = ClusterConfig(
            hosts=hosts, vms=vms, seed=seed, policy=policy, shards=1,
            mitigation=mitigation,
        )
        logical_fleet = LogicalFleet.build(range(hosts), shape, cfg)
        logical = AdmissionController(
            logical_fleet,  # type: ignore[arg-type]
            make_scheduler(policy),
        )
        for spec in generate_arrival_trace(seed, vms):
            real.submit(spec)
            real.drain()
            logical.submit(spec)
            logical.drain()
        assert [_decision_tuple(d) for d in logical.decisions] == [
            _decision_tuple(d) for d in real.decisions
        ]
        for rh, lh in zip(real_fleet.hosts, logical_fleet.hosts):
            assert list(lh.vm_specs) == list(rh.vm_specs)
            assert lh.free_nodes == len(rh.capacity().free_guest_node_ids)

    def test_shape_measurement(self):
        shape = measure_host_shape()
        assert shape.guest_nodes > 0
        assert shape.node_bytes > 0
        assert shape.backing_page_bytes > 0
        assert shape.guest_capacity_bytes == shape.guest_nodes * shape.node_bytes

    def test_saturation_fast_path_is_bit_equivalent(self):
        # Same shard inputs, pruning on vs off: identical decision
        # streams (vm, outcome, attempts, shortfall detail included).
        shape = measure_host_shape()
        cfg = ClusterConfig(
            hosts=2, vms=80, seed=3, policy="first-fit", shards=1
        )

        fast_seen: list = []
        fast = ClusterShard(0, range(2), cfg, shape, fast_seen.append)
        slow_seen: list = []
        slow = ClusterShard(0, range(2), cfg, shape, slow_seen.append)
        for spec in generate_arrival_trace(3, 80):
            fast.offer(spec)
            # The scanned reference path: same controller, no bypass.
            slow.controller.submit(spec)
            slow.controller.drain()
        assert fast.pruned > 0, "the trace must actually saturate the shard"
        assert [
            (d.vm, d.outcome, d.host_id, d.attempts, d.requested_groups,
             d.available_groups)
            for d in fast_seen
        ] == [
            (d.vm, d.outcome, d.host_id, d.attempts, d.requested_groups,
             d.available_groups)
            for d in slow_seen
        ]

    def test_shard_ranges_partition_hosts(self):
        for hosts, shards in ((10, 3), (1000, 16), (5, 5), (7, 1)):
            ranges = shard_ranges(hosts, shards)
            flat = [i for r in ranges for i in r]
            assert flat == list(range(hosts))
            sizes = [len(r) for r in ranges]
            assert max(sizes) - min(sizes) <= 1

    def test_config_validation(self):
        with pytest.raises(FleetError):
            ClusterConfig(hosts=4, shards=5)
        with pytest.raises(FleetError):
            ClusterConfig(shards=0)
        with pytest.raises(FleetError):
            ClusterConfig(scenario="nope")
        with pytest.raises(FleetError, match="unknown mitigation"):
            ClusterConfig(mitigation="bogus")
        with pytest.raises(FleetError, match="queue_depth"):
            ClusterConfig(queue_depth=0)
        with pytest.raises(FleetError, match="max_retries"):
            ClusterConfig(max_retries=-1)

    @pytest.mark.parametrize("mitigation", ["none", "para", "guard-rows"])
    def test_shared_pool_mitigations_refused(self, mitigation):
        # One shared pool node per host: a twin would hand all of it to
        # the first tenant and silently reject the rest.
        with pytest.raises(FleetError, match="cannot model"):
            ClusterConfig(hosts=4, vms=40, shards=2, mitigation=mitigation)

    def test_iter_arrival_trace_matches_list_form(self):
        assert list(iter_arrival_trace(7, 25)) == generate_arrival_trace(7, 25)


# ---------------------------------------------------------------------------
# Cluster campaigns end to end (small scale)
# ---------------------------------------------------------------------------


def _cluster_cfg(**kw) -> ClusterConfig:
    defaults = dict(hosts=4, vms=60, shards=2, budget=1, seed=7)
    defaults.update(kw)
    return ClusterConfig(**defaults)


class TestClusterCampaign:
    def test_digest_invariant_under_workers_backend_pool(self):
        reference = run_cluster_campaign(_cluster_cfg(workers=1))
        variants = [
            run_cluster_campaign(_cluster_cfg(workers=2)),
            run_cluster_campaign(_cluster_cfg(workers=2, backend="vectorized")),
        ]
        for v in variants:
            assert v.merge_digest == reference.merge_digest
        assert reference.hosts_failed == 0

    def test_digest_sensitive_to_seed_and_shards(self):
        base = run_cluster_campaign(_cluster_cfg())
        other_seed = run_cluster_campaign(_cluster_cfg(seed=8))
        other_shards = run_cluster_campaign(_cluster_cfg(shards=4))
        assert base.merge_digest != other_seed.merge_digest
        assert base.merge_digest != other_shards.merge_digest, (
            "shard boundaries change placement and must be hashed"
        )

    def test_report_shape(self):
        report = run_cluster_campaign(_cluster_cfg())
        assert report.summary["hosts"] == 4
        assert report.summary["arrivals"] == 60
        assert report.summary["admitted"] > 0
        assert report.hosts_per_sec > 0
        assert report.peak_rss_mib > 0
        text = report.render_text()
        assert "merge digest: " + report.merge_digest in text
        assert "hosts/sec" in text

    def test_bounded_memory_controller_retains_nothing(self):
        campaign_cfg = _cluster_cfg()
        from repro.fleet.cluster import ClusterCampaign

        campaign = ClusterCampaign(campaign_cfg)
        campaign.place()
        for shard in campaign.shards:
            assert shard.controller.decisions == [], (
                "cluster shards must stream decisions, not accumulate them"
            )
            assert shard.controller.decided > 0


# ---------------------------------------------------------------------------
# Streaming merge vs batch merge
# ---------------------------------------------------------------------------


class TestStreamingMerge:
    def _campaign_report(self):
        return FleetCampaign(
            CampaignConfig(hosts=3, vms=9, budget=1, seed=7)
        ).run()

    def test_streaming_equals_batch_replay(self):
        report = self._campaign_report()
        batch = report.merge_digest()

        fold = StreamingMerge(report.config)
        fold.guest_capacity_bytes = report.guest_capacity_bytes
        for d in report.decisions:
            fold.add_decision(d)
        hosts = list(report.host_results)
        random.Random(0).shuffle(hosts)  # workers finish in any order
        for r in hosts:
            fold.add_host_result(r)
        for m in report.migrations:
            fold.add_migration(m)
        fold.set_aftermath(degraded=report.degraded, audit=report.audit)
        assert fold.merge_digest() == batch

    def test_fold_aggregates_match_batch_report(self):
        report = self._campaign_report()
        fold = StreamingMerge(report.config)
        for d in report.decisions:
            fold.add_decision(d)
        for r in report.host_results:
            fold.add_host_result(r)
        assert fold.hosts == len(report.host_results)
        assert fold.hosts_ok == report.hosts_ok
        assert fold.placed_bytes == report.placed_bytes
        assert fold.acceptance_rate == pytest.approx(report.acceptance_rate)
        assert fold.rejected_by_reason == report.rejected_by_reason

    def test_host_order_does_not_matter_but_content_does(self):
        report = self._campaign_report()
        a = StreamingMerge(report.config)
        b = StreamingMerge(report.config)
        for r in report.host_results:
            a.add_host_result(r)
        for r in reversed(report.host_results):
            b.add_host_result(r)
        assert a.merge_digest() == b.merge_digest()
        mutated = dict(report.host_results[0])
        mutated["placed_bytes"] = mutated.get("placed_bytes", 0) + 1
        b.add_host_result(mutated)  # overwrite host 0's digest
        assert a.merge_digest() != b.merge_digest()

    def test_trace_key_is_scrubbed_everywhere(self):
        result = {"host_id": 0, "ok": True, "placed_bytes": 4}
        with_trace = {**result, "trace": {"merged_counters": {"act": 9.0}}}
        assert scrub_host_result(with_trace) == result
        assert host_result_digest(with_trace) == host_result_digest(result)
        a = StreamingMerge({"seed": 1})
        b = StreamingMerge({"seed": 1})
        a.add_host_result(result)
        b.add_host_result(with_trace)
        assert a.merge_digest() == b.merge_digest()

    def test_workers_ship_trace_summaries_when_obs_enabled(self):
        from repro.fleet.driver import HostTask, run_host_task
        from repro.fleet.host import HostSpec

        task = HostTask(
            spec=HostSpec(host_id=0, seed=3),
            vm_specs=(),
            scenario="attack",
            budget=1,
            storm_errors=1,
        )
        was_enabled = obs.ENABLED
        obs.enable()
        try:
            traced = run_host_task(task)
        finally:
            if not was_enabled:
                obs.disable()
        plain = run_host_task(task)
        assert "trace" in traced and "merged_counters" in traced["trace"]
        assert "trace" not in plain
        # The payload difference must never reach the digest.
        assert host_result_digest(traced) == host_result_digest(plain)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestClusterCli:
    def test_fleet_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["fleet"])
        assert args.shards == "auto"
        args = build_parser().parse_args(["fleet", "--shards", "4"])
        assert args.shards == "4"
        for bad in ("abc", "0", "-2"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["fleet", "--shards", bad])

    def test_explicit_shards_runs_cluster_path(self, capsys):
        from repro.cli import main

        code = main(
            ["--seed", "7", "fleet", "--hosts", "4", "--vms", "8",
             "--budget", "1", "--shards", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cluster campaign report" in out
        assert "merge digest:" in out

    def test_cluster_mode_rejects_chaos(self, capsys):
        from repro.cli import main

        code = main(
            ["fleet", "--hosts", "4", "--vms", "8", "--shards", "2",
             "--chaos-seed", "3"]
        )
        assert code == 2
        assert "not supported in cluster mode" in capsys.readouterr().err

    def test_auto_threshold(self):
        from repro.cli import CLUSTER_AUTO_HOSTS, _cluster_shards

        class _Args:
            hosts = CLUSTER_AUTO_HOSTS
            shards = "auto"
            chaos_seed = None
            journal = None
            resume = None

        assert _cluster_shards(_Args()) == 16
        _Args.hosts = CLUSTER_AUTO_HOSTS - 1
        assert _cluster_shards(_Args()) == 0
        _Args.hosts = CLUSTER_AUTO_HOSTS
        _Args.chaos_seed = 3
        assert _cluster_shards(_Args()) == 0, (
            "auto must never silently switch a chaos campaign to cluster mode"
        )
        _Args.chaos_seed = None
        for shared in ("none", "para", "guard-rows"):
            _Args.mitigation = shared
            assert _cluster_shards(_Args()) == 0, (
                "auto must keep shared-pool mitigations on the classic path"
            )
        _Args.mitigation = "catt"
        assert _cluster_shards(_Args()) == 16
        _Args.shards = "1"
        assert _cluster_shards(_Args()) == 0
