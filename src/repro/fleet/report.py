"""Merged fleet campaign results, folded into ``repro.obs``.

A :class:`FleetReport` is the deterministic artifact a campaign
produces: the admission decisions (in arrival order), the per-host
simulation results (in host-id order), and the derived fleet metrics.
Its :meth:`digest` hashes a canonical JSON form — the workers=1 vs
workers=N bit-identity criterion compares exactly this digest, and the
CI ``fleet-smoke`` job does the same across backends for the placement
half of the report.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro import obs

from repro.fleet.admission import AdmissionDecision


def _decision_dict(d: AdmissionDecision) -> dict:
    return {
        "vm": d.vm,
        "outcome": d.outcome,
        "host": d.host_id,
        "reason": d.reason.value if d.reason else "",
        "attempts": d.attempts,
    }


def _canon(doc) -> bytes:
    """Canonical JSON bytes — the one encoding every digest here hashes."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def scrub_host_result(result: dict) -> dict:
    """Host result with execution-detail keys removed before hashing.

    The ``trace`` section (merged per-kind counter deltas shipped back
    by pool workers) depends on whether observability was enabled, not
    on the simulated machine, so it must not participate in the
    workers=1 ≡ workers=N digest contract.
    """
    return {k: v for k, v in result.items() if k != "trace"}


def host_result_digest(result: dict) -> str:
    """sha256 over one host's canonical (scrubbed) result dict."""
    return hashlib.sha256(_canon(scrub_host_result(result))).hexdigest()


@dataclass
class FleetReport:
    """Everything one campaign produced, in canonical order."""

    config: dict
    decisions: list[dict]
    host_results: list[dict]
    guest_capacity_bytes: int
    placed_bytes: int
    acceptance_rate: float
    rejected_by_reason: dict[str, int] = field(default_factory=dict)
    migrations: list[dict] = field(default_factory=list)
    #: Chaos aftermath: crashed hosts, evacuations, incidents (hashed —
    #: deterministic given the chaos plan).
    degraded: dict = field(default_factory=dict)
    #: Isolation-auditor reports, in audit order (hashed, ditto).
    audit: list[dict] = field(default_factory=list)
    #: Supervisor bookkeeping (attempts/timeouts/deaths).  NOT hashed:
    #: how many times a shard had to retry depends on wall-clock
    #: scheduling and worker count, not on the simulated machine.
    supervision: dict = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        *,
        config,
        decisions: list[AdmissionDecision],
        host_results: list[dict],
        guest_capacity_bytes: int,
        migrations: list[dict] | None = None,
        degraded: dict | None = None,
        audit: list[dict] | None = None,
        supervision: dict | None = None,
    ) -> "FleetReport":
        admitted = [d for d in decisions if d.admitted]
        rejected: dict[str, int] = {}
        for d in decisions:
            if not d.admitted and d.reason is not None:
                rejected[d.reason.value] = rejected.get(d.reason.value, 0) + 1
        # Admitted bytes are re-derivable from the per-host VM lists; the
        # decisions don't carry sizes, so sum what the hosts report.
        placed_bytes = sum(r.get("placed_bytes", 0) for r in host_results)
        return cls(
            config=_config_dict(config),
            decisions=[_decision_dict(d) for d in decisions],
            host_results=host_results,
            guest_capacity_bytes=guest_capacity_bytes,
            placed_bytes=placed_bytes,
            acceptance_rate=(len(admitted) / len(decisions)) if decisions else 0.0,
            rejected_by_reason=rejected,
            migrations=list(migrations or []),
            degraded=dict(degraded or {}),
            audit=list(audit or []),
            supervision=dict(supervision or {}),
        )

    # ------------------------------------------------------------------
    # Determinism contract
    # ------------------------------------------------------------------

    def to_json(self) -> dict:
        """Canonical plain-data form (what :meth:`digest` hashes)."""
        return {
            "config": self.config,
            "decisions": self.decisions,
            "hosts": self.host_results,
            "migrations": self.migrations,
            "guest_capacity_bytes": self.guest_capacity_bytes,
            "placed_bytes": self.placed_bytes,
            "acceptance_rate": self.acceptance_rate,
            "rejected_by_reason": self.rejected_by_reason,
            "degraded": self.degraded,
            "audit": self.audit,
            "supervision": self.supervision,
        }

    def digest(self) -> str:
        """sha256 over the canonical JSON form; the merge-determinism
        contract (same seed + scenario => same digest at any worker
        count, on either backend for the placement/decision half).

        The worker count and the engine backend are execution details,
        not results (the differential engine guarantees bit-identical
        outcomes), so both are scrubbed from the hashed form — that is
        precisely what lets ``--workers 4`` compare equal to
        ``--workers 1`` and ``--backend batched`` to scalar.  The
        ``supervision`` section is scrubbed for the same reason: retry
        counts depend on wall-clock scheduling, never on the simulated
        machine.  The chaos aftermath (``degraded``, ``audit``) IS
        hashed — it is deterministic given the plan, and resume must
        reproduce it bit-identically.
        """
        doc = self.to_json()
        doc["config"] = {
            k: v for k, v in doc["config"].items() if k not in ("workers", "backend")
        }
        doc["hosts"] = [scrub_host_result(r) for r in doc["hosts"]]
        doc.pop("supervision", None)
        return hashlib.sha256(_canon(doc)).hexdigest()

    def merge_digest(self) -> str:
        """Streaming-foldable digest over the same determinism surface.

        Equals :meth:`StreamingMerge.merge_digest` for the identical
        shard set by construction — this method just replays the batch
        report through a fresh fold.  Cluster campaigns, which never
        materialize a full ``FleetReport``, publish this digest.
        """
        fold = StreamingMerge(self.config)
        fold.guest_capacity_bytes = self.guest_capacity_bytes
        for d in self.decisions:
            fold.add_decision(d)
        for r in self.host_results:
            fold.add_host_result(r)
        for m in self.migrations:
            fold.add_migration(m)
        fold.set_aftermath(degraded=self.degraded, audit=self.audit)
        return fold.merge_digest()

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------

    @property
    def hosts_ok(self) -> int:
        return sum(1 for r in self.host_results if r.get("ok"))

    @property
    def hosts_failed(self) -> int:
        return len(self.host_results) - self.hosts_ok

    @property
    def hosts_crashed(self) -> int:
        return sum(1 for r in self.host_results if r.get("crashed"))

    @property
    def audit_clean(self) -> bool:
        """True when every isolation audit found zero violations."""
        return all(a.get("violations", 0) == 0 for a in self.audit)

    @property
    def utilization(self) -> float:
        if self.guest_capacity_bytes == 0:
            return 0.0
        return self.placed_bytes / self.guest_capacity_bytes

    def headline(self) -> str:
        """One-line summary (logged at campaign end)."""
        return (
            f"{len(self.host_results)} host(s), "
            f"{sum(1 for d in self.decisions if d['outcome'] == 'admitted')}"
            f"/{len(self.decisions)} admitted "
            f"({self.acceptance_rate:.0%}), "
            f"utilization {self.utilization:.0%}, "
            f"{self.hosts_failed} host failure(s)"
        )

    def render_text(self) -> str:
        """The CLI's human-readable campaign report."""
        lines = [
            "fleet campaign report",
            f"  {self.headline()}",
            f"  policy={self.config.get('policy')} "
            f"scenario={self.config.get('scenario')} "
            f"backend={self.config.get('backend')} "
            f"seed={self.config.get('seed')}",
        ]
        if self.rejected_by_reason:
            parts = ", ".join(
                f"{k}={v}" for k, v in sorted(self.rejected_by_reason.items())
            )
            lines.append(f"  rejections: {parts}")
        for r in self.host_results:
            if r.get("ok"):
                extra = ""
                if r.get("scenario") == "attack" and not r.get("idle"):
                    extra = (
                        f" flips={r['flips']} escaped={r['escaped']} "
                        f"contained={r['contained']}"
                    )
                elif r.get("scenario") == "health" and not r.get("idle"):
                    extra = (
                        f" offlined={r['offlined']} "
                        f"migrated_blocks={r['migrated_blocks']}"
                    )
                lines.append(
                    f"  host {r['host_id']}: ok vms={len(r.get('vms', []))}{extra}"
                )
            else:
                lines.append(f"  host {r['host_id']}: FAILED ({r.get('error')})")
        if self.migrations:
            for m in self.migrations:
                lines.append(
                    f"  migration: {m['vm']} host {m['src_host']} -> "
                    f"host {m['dst_host']} ({m['bytes_copied']} bytes)"
                )
        if self.degraded:
            crashed = self.degraded.get("crashed_hosts", [])
            lines.append(
                f"  degraded: {len(crashed)} crashed host(s) "
                f"{crashed}, {self.degraded.get('evacuated_vms', 0)} VM(s) "
                f"evacuated, {len(self.degraded.get('incidents', []))} "
                "incident(s)"
            )
            for inc in self.degraded.get("incidents", []):
                lines.append(
                    f"    incident: {inc['incident']} host {inc['host']} "
                    f"vm {inc['vm']}"
                )
        if self.audit:
            total = sum(a.get("violations", 0) for a in self.audit)
            verdict = "clean" if total == 0 else f"{total} VIOLATION(S)"
            lines.append(
                f"  isolation audit: {len(self.audit)} audit(s), {verdict}"
            )
            for a in self.audit:
                if a.get("violations", 0):
                    lines.append(
                        f"    {a['phase']}: {a['violations']} violation(s)"
                    )
        if self.supervision and self.supervision.get("retried", 0):
            lines.append(
                f"  supervision: {self.supervision['retried']} shard(s) "
                f"retried ({self.supervision.get('worker_deaths', 0)} worker "
                f"death(s), {self.supervision.get('timeouts', 0)} timeout(s))"
            )
        return "\n".join(lines)

    def fold_into_metrics(self) -> None:
        """Publish the fleet-level rollups as gauges in ``repro.obs``
        (the per-event counters are folded as events were emitted)."""
        if not obs.ENABLED:
            return
        obs.METRICS.gauge("fleet.hosts").set(float(len(self.host_results)))
        obs.METRICS.gauge("fleet.hosts_failed").set(float(self.hosts_failed))
        obs.METRICS.gauge("fleet.acceptance_rate").set(self.acceptance_rate)
        obs.METRICS.gauge("fleet.utilization").set(self.utilization)
        if self.degraded or self.audit:
            obs.METRICS.gauge("fleet.hosts_crashed").set(float(self.hosts_crashed))
            obs.METRICS.gauge("fleet.evacuated_vms").set(
                float(self.degraded.get("evacuated_vms", 0))
            )
            obs.METRICS.gauge("fleet.audit_violations").set(
                float(sum(a.get("violations", 0) for a in self.audit))
            )


class StreamingMerge:
    """Incremental fleet merge: fold shards as they complete.

    The batch path materializes every host result, then hashes the
    whole report at once — fine for 8 hosts, hopeless for 1000 hosts /
    100k VMs.  ``StreamingMerge`` keeps O(hosts) digests and O(1)
    aggregates instead of O(results) payloads:

    - admission decisions fold into a rolling sha256 **in arrival
      order** (the order is part of the result — admission is a
      sequential protocol);
    - host results may arrive in **any order** (workers finish
      whenever); each is reduced to its canonical per-host digest and
      the pair ``(host_id, digest)`` is sorted at finalization, which
      is what makes the merge digest worker-count independent;
    - everything execution-dependent (worker count, backend, pool
      mode, trace summaries, supervision) is scrubbed exactly as in
      :meth:`FleetReport.digest`.

    Equivalence contract: feeding a completed :class:`FleetReport`
    through a fold (see :meth:`FleetReport.merge_digest`) yields the
    same digest as folding the shards live.
    """

    def __init__(self, config) -> None:
        cfg = _config_dict(config)
        self.config = {
            k: v for k, v in cfg.items() if k not in ("workers", "backend")
        }
        self.guest_capacity_bytes = 0
        # Admission stream (arrival order).
        self._decision_hash = hashlib.sha256()
        self.decision_count = 0
        self.admitted = 0
        self.rejected_by_reason: dict[str, int] = {}
        # Host shards (any order; sorted at finalization).
        self._host_digests: dict[int, str] = {}
        self.placed_bytes = 0
        self.hosts_ok = 0
        self.hosts_crashed = 0
        self.flips = 0
        self.escaped = 0
        self.contained = 0
        # Migrations (event order) + chaos aftermath.
        self._migration_hash = hashlib.sha256()
        self.migration_count = 0
        self.degraded: dict = {}
        self.audit: list[dict] = []

    # -- admission ------------------------------------------------------

    def add_decision(self, decision) -> None:
        """Fold one admission decision (arrival order matters)."""
        doc = (
            decision
            if isinstance(decision, dict)
            else _decision_dict(decision)
        )
        self._decision_hash.update(_canon(doc))
        self._decision_hash.update(b"\n")
        self.decision_count += 1
        if doc["outcome"] == "admitted":
            self.admitted += 1
        elif doc.get("reason"):
            reason = doc["reason"]
            self.rejected_by_reason[reason] = (
                self.rejected_by_reason.get(reason, 0) + 1
            )

    # -- host shards ----------------------------------------------------

    def add_host_result(self, result: dict) -> None:
        """Fold one host shard result (any completion order)."""
        host_id = int(result["host_id"])
        self._host_digests[host_id] = host_result_digest(result)
        self.placed_bytes += result.get("placed_bytes", 0)
        self.hosts_ok += 1 if result.get("ok") else 0
        self.hosts_crashed += 1 if result.get("crashed") else 0
        self.flips += result.get("flips", 0) or 0
        self.escaped += result.get("escaped", 0) or 0
        self.contained += result.get("contained", 0) or 0

    # -- aftermath ------------------------------------------------------

    def add_migration(self, migration: dict) -> None:
        self._migration_hash.update(_canon(migration))
        self._migration_hash.update(b"\n")
        self.migration_count += 1

    def set_aftermath(self, *, degraded: dict, audit: list[dict]) -> None:
        """Chaos aftermath — deterministic given the plan, so hashed."""
        self.degraded = dict(degraded or {})
        self.audit = list(audit or [])

    # -- finalization ---------------------------------------------------

    @property
    def hosts(self) -> int:
        return len(self._host_digests)

    @property
    def hosts_failed(self) -> int:
        return self.hosts - self.hosts_ok

    @property
    def acceptance_rate(self) -> float:
        if self.decision_count == 0:
            return 0.0
        return self.admitted / self.decision_count

    @property
    def audit_clean(self) -> bool:
        return all(a.get("violations", 0) == 0 for a in self.audit)

    def merge_digest(self) -> str:
        """sha256 over the folded determinism surface.

        Invariant under worker count, pool mode, backend, and host
        completion order; sensitive to every admitted/rejected VM,
        every host outcome, and the chaos aftermath.
        """
        doc = {
            "config": self.config,
            "decisions": {
                "count": self.decision_count,
                "fold": self._decision_hash.hexdigest(),
            },
            "hosts": sorted(self._host_digests.items()),
            "migrations": {
                "count": self.migration_count,
                "fold": self._migration_hash.hexdigest(),
            },
            "guest_capacity_bytes": self.guest_capacity_bytes,
            "placed_bytes": self.placed_bytes,
            "degraded": self.degraded,
            "audit": self.audit,
        }
        return hashlib.sha256(_canon(doc)).hexdigest()

    def summary(self) -> dict:
        """Bounded-size rollup (what cluster mode reports and renders)."""
        return {
            "hosts": self.hosts,
            "hosts_ok": self.hosts_ok,
            "hosts_failed": self.hosts_failed,
            "hosts_crashed": self.hosts_crashed,
            "arrivals": self.decision_count,
            "admitted": self.admitted,
            "acceptance_rate": self.acceptance_rate,
            "rejected_by_reason": dict(sorted(self.rejected_by_reason.items())),
            "guest_capacity_bytes": self.guest_capacity_bytes,
            "placed_bytes": self.placed_bytes,
            "flips": self.flips,
            "escaped": self.escaped,
            "contained": self.contained,
            "audit_clean": self.audit_clean,
            "merge_digest": self.merge_digest(),
        }


def _config_dict(config) -> dict:
    """Canonical plain-dict form of a CampaignConfig (or a dict)."""
    if isinstance(config, dict):
        return dict(config)
    from dataclasses import asdict

    out = asdict(config)
    out["vm_sizes_mib"] = list(out["vm_sizes_mib"])
    return out


__all__ = [
    "FleetReport",
    "StreamingMerge",
    "host_result_digest",
    "scrub_host_result",
]
