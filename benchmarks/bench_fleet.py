"""Fleet trajectory points: parallel scaling and cluster scale.

Two recorded entries in ``BENCH_fleet.json`` at the repo root:

- ``fleet_campaign`` — the same small one-shard campaign at
  ``workers=1`` vs ``workers=N``; merge digests must be
  **bit-identical** (per-host seeds derive from host ids, never pool
  order) and the ≥2× speedup target is enforced when the machine can
  express it.
- ``fleet_cluster`` — the same campaign path at cluster scale (1000
  hosts / 100k VM arrivals through 16 admission shards) at
  ``workers=1`` scalar, ``workers=N`` scalar, and ``workers=N``
  vectorized; all three merge digests must be bit-identical, and the
  best hosts/sec throughput plus driver peak RSS are recorded (gated by
  ``check_trajectory.py --key fleet_cluster --field hosts_per_sec``).

The ≥2× speedup target only makes sense with cores to scale onto, so
the assertion is gated on ``os.cpu_count() >= WORKERS``: a runner with
fewer CPUs records its honest measurement (or, on one CPU, a skip
marker) without failing, while runners with ``WORKERS`` CPUs enforce
the target.  The identical-results assertion
is unconditional — it is the half of the contract that must hold
everywhere.

``REPRO_BENCH_CLUSTER_HOSTS`` / ``REPRO_BENCH_CLUSTER_VMS`` shrink the
cluster leg for local iteration; the committed point and the nightly
run use the full 1000 / 100000 defaults.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.fleet import ClusterConfig, run_cluster_campaign

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH_JSON = REPO_ROOT / "BENCH_fleet.json"

#: Scaling target: parallel workers the bench compares against serial.
WORKERS = 4
#: Minimum acceptable scaling speedup when the machine can express it.
SCALING_TARGET = 2.0
#: Campaign sized so per-host work dominates placement + pool overhead.
HOSTS = 8
VMS = 24
BUDGET = 8

#: Cluster-scale leg (overridable for local iteration only — the
#: recorded trajectory point must stay at full scale to be comparable).
CLUSTER_HOSTS = int(os.environ.get("REPRO_BENCH_CLUSTER_HOSTS", "1000"))
CLUSTER_VMS = int(os.environ.get("REPRO_BENCH_CLUSTER_VMS", "100000"))
CLUSTER_SHARDS = 16
CLUSTER_BUDGET = 2

_RESULTS: dict = {
    "bench": "fleet",
    "note": "parallel fleet campaign (workers=N) vs serial (workers=1); "
    "merge digests must be bit-identical",
}


def _record(key: str, payload: dict) -> None:
    _RESULTS[key] = payload
    BENCH_JSON.write_text(json.dumps(_RESULTS, indent=2) + "\n")


def _banner(title: str) -> str:
    rule = "=" * len(title)
    return f"\n{rule}\n{title}\n{rule}"


def _campaign(workers: int):
    config = ClusterConfig(
        hosts=HOSTS, vms=VMS, budget=BUDGET, workers=workers, seed=7
    )
    t0 = time.perf_counter()
    report = run_cluster_campaign(config)
    return time.perf_counter() - t0, report


def _not_enforced(cpus: int) -> str:
    """Why the scaling target is not enforced on this runner."""
    if cpus <= 1:
        return f"single-core runner ({cpus} cpu)"
    return f"{cpus}-CPU runner, fewer CPUs than the {WORKERS} workers"


def _cluster(workers: int, backend: str):
    config = ClusterConfig(
        hosts=CLUSTER_HOSTS,
        vms=CLUSTER_VMS,
        shards=CLUSTER_SHARDS,
        budget=CLUSTER_BUDGET,
        workers=workers,
        backend=backend,
        seed=7,
        policy="first-fit",
    )
    return run_cluster_campaign(config)


def test_fleet_scaling() -> None:
    cpus = os.cpu_count() or 1
    serial_s, serial = _campaign(1)
    parallel_s, parallel = _campaign(WORKERS)

    assert serial.merge_digest == parallel.merge_digest, (
        "workers=1 and workers=%d merged reports diverged" % WORKERS
    )
    assert serial.hosts_failed == 0, "campaign had host failures"

    speedup = serial_s / parallel_s
    enforced = cpus >= WORKERS
    print(_banner(f"Fleet: {HOSTS}-host campaign, workers=1 vs workers={WORKERS}"))
    print(
        f"serial {serial_s * 1e3:8.1f} ms   parallel {parallel_s * 1e3:8.1f} ms"
        f"   speedup {speedup:.2f}x "
        f"(target >= {SCALING_TARGET}x, "
        f"{'enforced' if enforced else 'not enforced: ' + _not_enforced(cpus)})"
    )
    payload = {
        "serial_seconds": round(serial_s, 6),
        "parallel_seconds": round(parallel_s, 6),
        "workers": WORKERS,
        "cpu_count": cpus,
        "target": SCALING_TARGET,
        "target_enforced": enforced,
        "identical_results": True,
        "hosts": HOSTS,
        "vms": VMS,
        "merge_digest": serial.merge_digest,
    }
    if cpus > 1:
        payload["speedup"] = round(speedup, 3)
    else:
        # A 1-core box cannot measure scaling at all — its ~1x "speedup"
        # is pure pool overhead, and recording it would poison the
        # trajectory baseline for real runners.  Write a loud skip
        # marker instead; check_trajectory --key passes it through
        # without gating.
        payload["skipped"] = _not_enforced(cpus)
    _record("fleet_campaign", payload)
    if enforced:
        assert speedup >= SCALING_TARGET, (
            f"fleet scaling below target ({speedup:.2f}x < {SCALING_TARGET}x "
            f"at {WORKERS} workers on {cpus} CPUs); see BENCH_fleet.json"
        )
    else:
        # One loud, grep-able line: the CI fleet-smoke job lifts it into
        # the job summary so a skipped target never passes silently.
        print(
            f"WARNING: fleet scaling target SKIPPED — {_not_enforced(cpus)}; "
            f"speedup {speedup:.2f}x was NOT enforced against the "
            f"{SCALING_TARGET}x target (target_enforced: false)"
        )


def test_fleet_cluster() -> None:
    """Cluster scale: sharded admission over logical twins + streaming
    merge, digest-identical across worker counts AND backends, with the
    best hosts/sec recorded as the gated trajectory metric."""
    cpus = os.cpu_count() or 1
    runs = {
        "serial_scalar": _cluster(1, "scalar"),
        f"w{WORKERS}_scalar": _cluster(WORKERS, "scalar"),
        f"w{WORKERS}_vectorized": _cluster(WORKERS, "vectorized"),
    }
    digests = {name: r.merge_digest for name, r in runs.items()}
    assert len(set(digests.values())) == 1, (
        f"cluster merge digests diverged across worker counts/backends: {digests}"
    )
    for name, r in runs.items():
        assert r.hosts_failed == 0, f"cluster run {name} had host failures"

    best = max(runs.values(), key=lambda r: r.hosts_per_sec)
    full_scale = CLUSTER_HOSTS >= 1000 and CLUSTER_VMS >= 100_000
    print(_banner(
        f"Fleet: cluster campaign, {CLUSTER_HOSTS} hosts / "
        f"{CLUSTER_VMS} VM arrivals, {CLUSTER_SHARDS} shards"
    ))
    for name, r in runs.items():
        print(
            f"{name:16s} {r.elapsed_s:7.1f} s   {r.hosts_per_sec:7.1f} hosts/s"
            f"   peak rss {r.peak_rss_mib:6.0f} MiB"
        )
    payload = {
        "hosts": CLUSTER_HOSTS,
        "vms": CLUSTER_VMS,
        "shards": CLUSTER_SHARDS,
        "budget": CLUSTER_BUDGET,
        "workers": WORKERS,
        "cpu_count": cpus,
        "runs": {
            name: {
                "elapsed_seconds": round(r.elapsed_s, 3),
                "hosts_per_sec": round(r.hosts_per_sec, 3),
                "peak_rss_mib": round(r.peak_rss_mib, 1),
            }
            for name, r in runs.items()
        },
        "admitted": runs["serial_scalar"].summary["admitted"],
        "pruned_arrivals": runs["serial_scalar"].pruned_arrivals,
        "identical_results": True,
        "merge_digest": best.merge_digest,
    }
    if full_scale:
        payload["hosts_per_sec"] = round(best.hosts_per_sec, 3)
    else:
        # A scaled-down local run records its shape but must not poison
        # the full-scale trajectory baseline with incomparable numbers.
        payload["skipped"] = (
            f"reduced scale ({CLUSTER_HOSTS} hosts / {CLUSTER_VMS} vms); "
            "hosts_per_sec only comparable at 1000/100000"
        )
    _record("fleet_cluster", payload)


if __name__ == "__main__":
    test_fleet_scaling()
    test_fleet_cluster()
