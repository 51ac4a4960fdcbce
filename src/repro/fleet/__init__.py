"""``repro.fleet`` — a multi-host fleet simulator on top of the Siloz
single-host model.

The package scales PR 0–3's one-server simulation out to a cluster:

- :mod:`repro.fleet.host` — one booted host (Machine + SilozHypervisor +
  HealthMonitor) with capacity accounting and stable per-host seeds.
- :mod:`repro.fleet.scheduler` — pluggable subarray-group-aware VM
  placement (first-fit / best-fit / spread).
- :mod:`repro.fleet.admission` — bounded admission queue with
  backpressure, retries, and typed eviction reasons.
- :mod:`repro.fleet.migration` — cross-host live migration and
  degraded-host evacuation (unblocks deferred offlinings).
- :mod:`repro.fleet.cluster` — the fleet campaign, 2 to 1000 hosts:
  sharded admission over logical capacity twins (every mitigation,
  chaos included), supervised per-host execution, journal/resume,
  chaos evacuation, bounded driver memory.
- :mod:`repro.fleet.driver` — the per-host task a worker runs
  (workers=N ≡ workers=1, bit for bit).
- :mod:`repro.fleet.report` — the incremental
  :class:`~repro.fleet.report.StreamingMerge` fold and its merge digest.
"""

from repro.fleet.admission import (
    AdmissionController,
    AdmissionDecision,
    RejectReason,
    iter_arrival_trace,
)
from repro.fleet.cluster import (
    ClusterCampaign,
    ClusterConfig,
    ClusterReport,
    LogicalFleet,
    LogicalHost,
    measure_host_shape,
    run_cluster_campaign,
)
from repro.fleet.driver import HostTask, SCENARIOS, run_host_task
from repro.fleet.host import Fleet, Host, HostSpec, derive_host_seed
from repro.fleet.migration import (
    MigrationError,
    MigrationRecord,
    evacuate_host,
    migrate_vm,
)
from repro.fleet.report import StreamingMerge
from repro.fleet.scheduler import (
    BestFitScheduler,
    FirstFitScheduler,
    PlacementScheduler,
    SCHEDULERS,
    SpreadScheduler,
    host_fits,
    make_scheduler,
    spec_page_aligned,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "BestFitScheduler",
    "ClusterCampaign",
    "ClusterConfig",
    "ClusterReport",
    "Fleet",
    "FirstFitScheduler",
    "LogicalFleet",
    "LogicalHost",
    "Host",
    "HostSpec",
    "HostTask",
    "MigrationError",
    "MigrationRecord",
    "PlacementScheduler",
    "RejectReason",
    "SCENARIOS",
    "SCHEDULERS",
    "SpreadScheduler",
    "StreamingMerge",
    "derive_host_seed",
    "evacuate_host",
    "host_fits",
    "iter_arrival_trace",
    "make_scheduler",
    "measure_host_shape",
    "migrate_vm",
    "run_cluster_campaign",
    "run_host_task",
    "spec_page_aligned",
]
