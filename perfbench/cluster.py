"""``cluster``: a reduced nightly cluster smoke through
``run_cluster_campaign``.

Sharded first-fit admission over logical twins, then every host's real
boot, placement replay and two-pattern attack on a persistent pool of
two workers, folded by the streaming merge; vectorized backend.  One
round is five 16-host campaigns whose seeds derive from the workload
seed (80 hosts, against the nightly smoke's 100, so that a 15-second
run holds several rounds).  Operations attempted are host tasks; the
latencies are those of whole campaigns.

Each worker times the probe loop after every host task it runs
(``count_host_task``), so times are scaled by the speed of the CPUs the
tasks ran on, not by that of this process.  Half of those loops' time
is taken off the campaign and round walls (see ``round``).
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import time
from pathlib import Path

from repro.chaos.pool import shutdown_shared_pools
from repro.fleet import ClusterConfig, run_cluster_campaign

from perfbench.common import Round, RoundWorkload, digest
from perfbench.layers import (
    ATTACK_SPAN,
    HOST_TASK_SPAN,
    PROBE_S,
    install_layers,
    install_pool_timers,
)
from perfbench.speed import REFERENCE_S, SpeedProbe
from perfbench.tracer import Tracer, merge_counts, merge_stats

WORKERS = 2
SHAPES = {
    "full": {"hosts": 16, "vms": 800, "shards": 8},
    "tiny": {"hosts": 4, "vms": 40, "shards": 2},
}
#: Campaigns per round.  A campaign's time averages over its hosts; a
#: single host's does not, and which host is slowest, and by how much,
#: changes with the seed.
CAMPAIGNS = {"full": 5, "tiny": 1}


class Cluster(RoundWorkload):
    workers = WORKERS

    def __init__(self, seed: int, shape: str, probe: SpeedProbe, scratch: Path):
        super().__init__(probe)
        self.spool = scratch / "spool"
        self.spool.mkdir(parents=True, exist_ok=True)
        self.configs = [
            ClusterConfig(
                **SHAPES[shape],
                budget=2,
                workers=WORKERS,
                backend="vectorized",
                seed=CAMPAIGNS[shape] * seed + k,
                policy="first-fit",
            )
            for k in range(CAMPAIGNS[shape])
        ]
        self.tracer = Tracer(self.spool)
        self.retries = 0
        #: Span totals and counts spooled by the pool workers.
        self.worker_stats: dict = {}
        self.worker_counts: dict = {}

    def skip_reason(self) -> str | None:
        cpus = os.cpu_count() or 1
        if cpus < WORKERS:
            return f"needs {WORKERS} CPUs for its {WORKERS}-worker pool, runner has {cpus}"
        return None

    def _warm_pool(self) -> None:
        """Fork the shared pool (its workers run ``warm_worker``) and
        push one small campaign through it, then drop its spans."""
        run_cluster_campaign(
            dataclasses.replace(self.configs[0], hosts=2, vms=8, shards=1)
        )
        list(self.tracer.take_spool())

    def setup(self) -> None:
        # Host tasks run in forked workers: the timer must be in place
        # before the pool forks.
        install_pool_timers(self.tracer.install())
        self._warm_pool()

    def round(self) -> Round:
        reports, campaign_s, records = [], [], []
        task_s = scaled_s = hammer_s = probe_s = 0.0
        for config in self.configs:
            t0 = time.perf_counter()
            reports.append(run_cluster_campaign(config))
            elapsed = time.perf_counter() - t0
            # Workers spool a task's record before they return its
            # result, so the campaign's records are all in.
            campaign = list(self.tracer.take_spool())
            # The workers' probe loops ran inside the campaign, on both
            # workers at once: half their time is not the program's.
            loops_s = 0.0
            for r in campaign:
                if HOST_TASK_SPAN not in r["stats"]:
                    continue
                loop_s = r["counts"].pop(PROBE_S)
                loops_s += loop_s
                span = r["stats"][HOST_TASK_SPAN]
                span[0] -= loop_s
                span[1] -= loop_s
                scale = REFERENCE_S / loop_s
                task_s += span[1]
                scaled_s += span[1] * scale
                hammer_s += r["stats"].get(ATTACK_SPAN, [0.0, 0.0, 0])[1] * scale
            campaign_s.append(elapsed - loops_s / WORKERS)
            probe_s += loops_s / WORKERS
            records += campaign
        tasks = [r for r in records if HOST_TASK_SPAN in r["stats"]]
        for r in records:
            merge_stats(self.worker_stats, r["stats"])
            merge_counts(self.worker_counts, r["counts"])
        hosts = sum(config.hosts for config in self.configs)
        failed = sum(report.hosts_failed for report in reports)
        self.retries += sum(report.supervision["retried"] for report in reports)
        errors = []
        if failed:
            errors.append(f"{failed} host task(s) failed")
        if len(tasks) != hosts:
            errors.append(f"{len(tasks)} host-task records for {hosts} hosts")
        acts = sum(r["counts"].get("host_task_acts", 0) for r in tasks)
        return Round(
            digest=digest([report.merge_digest for report in reports]),
            latencies=campaign_s,
            # The workers' own probe loops give the round's host speed.
            scale=scaled_s / task_s if task_s else None,
            hammer_s=hammer_s or None,
            probe_s=probe_s,
            ops=hosts,
            failed=failed,
            acts=acts,
            # The program counts no hammer accesses; each one opens a
            # row, so this is the activation count again.
            accesses=acts,
            hosts=hosts,
            errors=errors,
        )

    def start_tracing(self, tracer: Tracer) -> None:
        """Re-fork the pool under a tracer that wraps every layer."""
        shutdown_shared_pools()
        self.tracer.uninstall()
        self.tracer = tracer
        install_layers(tracer.install())
        self._warm_pool()
        tracer.reset()
        self.retries = 0
        self.worker_stats.clear()
        self.worker_counts.clear()

    def trace_extra(self) -> dict:
        return {"chaos.pool.retries": float(self.retries)}

    def close(self) -> None:
        shutdown_shared_pools()
        self.tracer.uninstall()
        shutil.rmtree(self.spool, ignore_errors=True)
