"""The isolation-invariant auditor: Siloz's claims, checked under fire.

:class:`IsolationAuditor` re-runs the one placement verdict,
:meth:`Mitigation.audit <repro.mitigations.base.Mitigation.audit>`,
across every *surviving* host of a fleet — after each chaos event the
driver handles (crash evacuations, queue stalls) and once more at
campaign end.  That verdict covers both of the paper's load-bearing
invariants: one tenant per protection domain (plus the full placement
audit of :func:`repro.core.policy.audit_hypervisor`), and guard rows
that stay retired and un-backed.

Unlike :meth:`Host.assert_isolation`, which raises on the first
finding, the auditor *collects* findings into a deterministic
:class:`AuditReport` — chaos campaigns want the full damage picture in
the merged report, not a dead campaign — and emits ``audit`` events +
metrics through :mod:`repro.obs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro import obs
from repro.core.policy import Violation


@dataclass
class AuditReport:
    """One audit pass over the surviving fleet."""

    phase: str
    hosts_audited: int
    #: ``(host id, finding)`` pairs, hosts in id order.
    findings: List[Tuple[int, Violation]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic plain-data form (hashed into the merge digest)."""
        return {
            "phase": self.phase,
            "hosts_audited": self.hosts_audited,
            "violations": len(self.findings),
            "findings": [
                {"host": host_id, "check": v.kind, "detail": v.detail}
                for host_id, v in self.findings
            ],
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
        hosts = [
            h
            for h in sorted(self.fleet.hosts, key=lambda h: h.host_id)
            if h.host_id not in self.exclude
        ]
        report = AuditReport(
            phase=phase,
            hosts_audited=len(hosts),
            findings=[
                (host.host_id, v)
                for host in hosts
                for v in host.mitigation.audit(host.hv)
            ],
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
                    violations=len(report.findings),
                    when=when,
                )
            )
        return report
