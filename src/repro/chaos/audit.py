"""The isolation-invariant auditor: Siloz's claims, checked under fire.

:class:`IsolationAuditor` re-verifies the paper's two load-bearing
invariants across every *surviving* host of a fleet — after each chaos
event the driver handles (crash evacuations, queue stalls) and once
more at campaign end:

1. **One tenant per subarray group** — no subarray group is reserved by
   two VMs, and the full single-host placement audit
   (:func:`repro.core.policy.audit_hypervisor`) is clean: backing
   inside reserved groups, no tenant/host group sharing, mediated
   memory on host-reserved nodes.
2. **Guard rows stay retired** — every boot-time guard-row range is
   still registered offline and no VM's backing overlaps one (a guard
   row handed back to a tenant would reopen the cross-group disturbance
   channel the reservation exists to close).

Unlike :meth:`Host.assert_isolation`, which raises on first violation,
the auditor *collects* findings into a deterministic
:class:`AuditReport` — chaos campaigns want the full damage picture in
the merged report, not a dead campaign — and emits ``audit`` events +
metrics through :mod:`repro.obs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro import obs
from repro.core.policy import audit_hypervisor
from repro.mm.offline import OfflineReason


@dataclass(frozen=True)
class AuditFinding:
    """One invariant violation on one host."""

    host_id: int
    check: str  # "tenant-groups" | "guard-rows" | "policy-audit"
    detail: str

    def to_dict(self) -> Dict[str, Any]:
        return {"host": self.host_id, "check": self.check, "detail": self.detail}


@dataclass
class AuditReport:
    """One audit pass over the surviving fleet."""

    phase: str
    hosts_audited: int
    findings: List[AuditFinding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic plain-data form (hashed into the merge digest)."""
        return {
            "phase": self.phase,
            "hosts_audited": self.hosts_audited,
            "violations": len(self.findings),
            "findings": [f.to_dict() for f in self.findings],
        }


class IsolationAuditor:
    """Audits every surviving host of a fleet, collecting findings."""

    def __init__(self, fleet, *, exclude: Tuple[int, ...] = ()):
        self.fleet = fleet
        #: Host ids to skip (crashed hosts: their state is moot).
        self.exclude = tuple(exclude)
        self.reports: List[AuditReport] = []

    def audit(self, phase: str) -> AuditReport:
        """One full pass; records, emits, and returns the report."""
        findings: List[AuditFinding] = []
        hosts = [
            h
            for h in sorted(self.fleet.hosts, key=lambda h: h.host_id)
            if h.host_id not in self.exclude
        ]
        for host in hosts:
            findings.extend(self._audit_host(host))
        report = AuditReport(
            phase=phase, hosts_audited=len(hosts), findings=findings
        )
        self.reports.append(report)
        if obs.ENABLED:
            when = max(
                (h.hv.machine.dram.clock for h in hosts), default=None
            )
            obs.emit(
                obs.AuditEvent(
                    phase=phase,
                    hosts=len(hosts),
                    violations=len(findings),
                    when=when,
                )
            )
        return report

    # ------------------------------------------------------------------
    # Per-host checks
    # ------------------------------------------------------------------

    def _audit_host(self, host) -> List[AuditFinding]:
        findings: List[AuditFinding] = []
        findings.extend(self._check_tenant_groups(host))
        findings.extend(self.check_guard_rows(host))
        # Only the audit kinds the host's mitigation *enforces* are
        # violations; the rest (e.g. co-location under a shared-pool
        # baseline) are that mitigation's documented exposure, measured
        # by the attack scenarios rather than flagged here.
        mitigation = getattr(host, "mitigation", None)
        for violation in (
            audit_hypervisor(host.hv)
            if mitigation is None
            else mitigation.audit(host.hv)
        ):
            findings.append(
                AuditFinding(
                    host_id=host.host_id,
                    check="policy-audit",
                    detail=str(violation),
                )
            )
        return findings

    @staticmethod
    def _check_tenant_groups(host) -> List[AuditFinding]:
        """One-tenant-per-group: no subarray group reserved twice."""
        findings: List[AuditFinding] = []
        claimed: Dict[Any, str] = {}
        for name in sorted(host.hv.vms):
            vm = host.hv.vms[name]
            for group in sorted(vm.reserved_groups):
                other = claimed.get(group)
                if other is not None and other != vm.name:
                    findings.append(
                        AuditFinding(
                            host_id=host.host_id,
                            check="tenant-groups",
                            detail=(
                                f"subarray group {group} reserved by both "
                                f"{other!r} and {vm.name!r}"
                            ),
                        )
                    )
                claimed[group] = vm.name
        return findings

    @staticmethod
    def check_guard_rows(host) -> List[AuditFinding]:
        """Guard rows stay retired and un-backed (also run by every
        fleet host task on its own host)."""
        findings: List[AuditFinding] = []
        guards = host.hv.offline.ranges_for(OfflineReason.GUARD_ROW)
        for r in guards:
            if not host.hv.offline.is_offline(r.start) or not host.hv.offline.is_offline(r.end - 1):
                findings.append(
                    AuditFinding(
                        host_id=host.host_id,
                        check="guard-rows",
                        detail=(
                            f"guard range {r.start:#x}-{r.end:#x} no longer "
                            "registered offline"
                        ),
                    )
                )
        for name in sorted(host.hv.vms):
            vm = host.hv.vms[name]
            for block in vm.backing:
                for r in guards:
                    if block.start < r.end and r.start < block.end:
                        findings.append(
                            AuditFinding(
                                host_id=host.host_id,
                                check="guard-rows",
                                detail=(
                                    f"VM {vm.name!r} backing "
                                    f"{block.start:#x}-{block.end:#x} overlaps "
                                    f"guard range {r.start:#x}-{r.end:#x}"
                                ),
                            )
                        )
        return findings
