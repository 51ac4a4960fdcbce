"""The fleet campaign merge: one streaming fold, one digest.

:class:`StreamingMerge` folds a campaign's admission decisions (in
arrival order), per-host results (in any completion order) and chaos
aftermath into bounded aggregates and a single :meth:`merge digest
<StreamingMerge.merge_digest>` — the workers=1 vs workers=N and scalar
vs vectorized bit-identity contract the tests and the CI
``fleet-smoke`` job compare.
"""

from __future__ import annotations

import hashlib
import json

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


class StreamingMerge:
    """Incremental fleet merge: fold shards as they complete.

    Materializing every host result and hashing the whole report at
    once is fine for 8 hosts, hopeless for 1000 hosts / 100k VMs, so
    the fold keeps O(hosts) digests and O(1) aggregates instead of
    O(results) payloads:

    - admission decisions fold into a rolling sha256 **in arrival
      order** (the order is part of the result — admission is a
      sequential protocol);
    - host results may arrive in **any order** (workers finish
      whenever); each is reduced to its canonical per-host digest and
      the pair ``(host_id, digest)`` is sorted at finalization, which
      is what makes the merge digest worker-count independent;
    - everything execution-dependent (worker count, backend, pool
      mode, trace summaries, supervision) is scrubbed: those are *how*
      a campaign ran, never *what* it computed.

    Equivalence contract: replaying a finished campaign's decisions and
    host results through a fresh fold, in any host order, yields the
    digest the live fold published.
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
        """Bounded-size rollup (what the campaign reports and renders)."""
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
    """Canonical plain-dict form of a ClusterConfig (or a dict)."""
    if isinstance(config, dict):
        return dict(config)
    from dataclasses import asdict

    out = asdict(config)
    out["vm_sizes_mib"] = list(out["vm_sizes_mib"])
    return out


__all__ = [
    "StreamingMerge",
    "host_result_digest",
    "scrub_host_result",
]
