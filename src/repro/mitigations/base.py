"""The pluggable mitigation interface behind the bake-off harness.

A :class:`Mitigation` bundles everything the fleet needs to run one
Rowhammer defence as a drop-in: how to boot its hypervisor (topology
and EPT placement; every hypervisor admits VMs through the one rule,
:func:`~repro.hv.hypervisor.choose_nodes`), which runtime knobs to
attach to the DRAM (probabilistic refresh hooks), what its *protection
domains* are, and how to account the capacity it sacrifices.  The
Siloz reproduction itself is just one registered mitigation; the
bake-off runs it against rivals under byte-identical seeded fleet
scenarios.

**The interface contract** (locked down by
``tests/test_mitigation_properties.py``):

* ``boot`` is a pure function of the machine — booting twice from
  equal machines yields identical topology and placement behaviour.
* A mitigation may never place two tenants in one protection domain
  (:meth:`domains_of`) unless its hypervisor class declares shared
  pools (:attr:`~repro.hv.hypervisor.Hypervisor.exclusive_nodes` is
  False).
* :meth:`capacity` numbers are never negative and ``loss_fraction``
  stays within [0, 1].

**Audit semantics.**  :meth:`Mitigation.audit` is the one placement
verdict every layer reads — :meth:`Mitigation.assert_isolation` after
each placement and host task, and the chaos
:class:`~repro.chaos.audit.IsolationAuditor` in every audit phase.  It
is two parts: domain exclusivity (no protection domain holds two
tenants; checked only when the hypervisor's ``exclusive_nodes`` is
set), then the enforced subset of
:func:`repro.core.policy.audit_hypervisor`, which checks Siloz's
invariants in *subarray* terms.  Its "co-location" finding flags any
two VMs whose backing shares a subarray group.  That is exactly the
exposure some rivals accept by design — a shared guest pool co-locates
tenants, and CATT partitions straddle subarray boundaries — so each
mitigation declares which audit kinds are *enforced invariants* for it
(:attr:`Mitigation.enforced_audit_kinds`).  Unenforced findings are the
documented containment holes the attack matrix tests reproduce; they
are not bugs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Dict, Type

from repro.core.policy import Violation, audit_hypervisor
from repro.errors import IsolationViolation, MitigationError
from repro.mm.numa import NodeKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hv.hypervisor import Hypervisor
    from repro.hv.machine import Machine
    from repro.hv.vm import VirtualMachine


#: Every kind :func:`audit_hypervisor` can report.
ALL_AUDIT_KINDS: tuple[str, ...] = (
    "escape",
    "host-overlap",
    "mediated-misplaced",
    "co-location",
    "guard-rows",
)


@dataclass(frozen=True)
class MitigationCapacity:
    """Capacity accounting for one booted mitigation on one host."""

    #: Physical DRAM on the machine.
    total_bytes: int
    #: Bytes provisioned as guest-placeable (guest-reserved nodes).
    guest_bytes: int
    #: Bytes a new tenant could still be backed by right now.
    free_guest_bytes: int
    #: Bytes the mitigation itself consumes: offlined guard rows,
    #: remediation retirements, and dedicated EPT row groups.
    reserved_bytes: int

    def __post_init__(self) -> None:
        for name in ("total_bytes", "guest_bytes", "free_guest_bytes", "reserved_bytes"):
            if getattr(self, name) < 0:
                raise MitigationError(f"{name} may not be negative")

    @property
    def loss_fraction(self) -> float:
        """Fraction of physical DRAM the mitigation sacrifices."""
        return self.reserved_bytes / self.total_bytes if self.total_bytes else 0.0

    def to_dict(self) -> dict:
        """JSON-ready form; ``loss_fraction`` rounded for stable digests."""
        return {
            "total_bytes": self.total_bytes,
            "guest_bytes": self.guest_bytes,
            "free_guest_bytes": self.free_guest_bytes,
            "reserved_bytes": self.reserved_bytes,
            "loss_fraction": round(self.loss_fraction, 6),
        }


class Mitigation:
    """One pluggable Rowhammer defence; subclass and :func:`register`."""

    #: Registry key (``repro bakeoff --mitigations``).
    name: ClassVar[str] = ""
    #: One-line description for tables and ``--help``.
    summary: ClassVar[str] = ""
    #: Audit kinds that are hard invariants for this mitigation; the
    #: rest are accepted exposure (see module docstring).
    enforced_audit_kinds: ClassVar[tuple[str, ...]] = ALL_AUDIT_KINDS

    # -- lifecycle -----------------------------------------------------

    def boot(self, machine: "Machine") -> "Hypervisor":
        """Boot this mitigation's hypervisor on *machine*."""
        raise NotImplementedError

    def attach(self, hv: "Hypervisor", *, seed: int = 0) -> None:
        """Attach runtime machinery (DRAM hooks, refresh knobs).

        Called once right after :meth:`boot`; the default is a no-op
        (placement-only mitigations need nothing at runtime)."""

    # -- protection domains --------------------------------------------

    def domains_of(self, hv: "Hypervisor", vm: "VirtualMachine") -> frozenset:
        """The protection domains *vm* occupies.

        Defaults to the VM's reserved subarray groups when it has any
        (Siloz-style), else its logical NUMA nodes — partition-style
        mitigations protect at node granularity."""
        if vm.reserved_groups:
            return frozenset(vm.reserved_groups)
        return frozenset(("node", nid) for nid in vm.node_ids)

    # -- accounting ----------------------------------------------------

    def capacity(self, hv: "Hypervisor") -> MitigationCapacity:
        """Capacity accounting on *hv* right now."""
        snap = hv.capacity()
        guest = sum(
            n.total_bytes for n in hv.topology.nodes_of_kind(NodeKind.GUEST_RESERVED)
        )
        ept = sum(
            n.total_bytes for n in hv.topology.nodes_of_kind(NodeKind.EPT_RESERVED)
        )
        return MitigationCapacity(
            total_bytes=hv.machine.geom.total_bytes,
            guest_bytes=guest,
            free_guest_bytes=snap.free_guest_bytes,
            reserved_bytes=snap.offlined_bytes + ept,
        )

    def refresh_ops(self, hv: "Hypervisor") -> int:
        """Extra row refreshes this mitigation issued (its perf cost);
        0 for placement-only mitigations."""
        return 0

    # -- invariants ----------------------------------------------------

    def audit(self, hv: "Hypervisor") -> tuple[Violation, ...]:
        """This mitigation's invariant violations on *hv*: domain
        exclusivity (only on a hypervisor whose tenants own their nodes,
        ``hv.exclusive_nodes``), then the enforced subset of the
        placement audit."""
        findings: list[Violation] = []
        if hv.exclusive_nodes:
            claimed: dict = {}
            for name in sorted(hv.vms):
                for domain in sorted(self.domains_of(hv, hv.vms[name])):
                    other = claimed.setdefault(domain, name)
                    if other != name:
                        findings.append(
                            Violation(
                                "shared-domain",
                                f"protection domain {domain} holds both "
                                f"{other!r} and {name!r}",
                            )
                        )
        enforced = set(self.enforced_audit_kinds)
        findings.extend(v for v in audit_hypervisor(hv) if v.kind in enforced)
        return tuple(findings)

    def assert_isolation(self, host) -> None:
        """Raise :class:`IsolationViolation` on the first :meth:`audit`
        finding on *host* (a :class:`repro.fleet.host.Host`)."""
        violations = self.audit(host.hv)
        if violations:
            raise IsolationViolation(
                f"host {host.host_id} ({self.name}): isolation audit found "
                f"{len(violations)} violation(s): {violations[0]}"
            )

    # -- reporting -----------------------------------------------------

    def host_report(self, host) -> dict:
        """Deterministic per-host section merged into the fleet report."""
        dram = host.hv.machine.dram
        return {
            "name": self.name,
            "shared_domains": not host.hv.exclusive_nodes,
            "capacity": self.capacity(host.hv).to_dict(),
            "activations": dram.counters.activations,
            "refresh_ops": self.refresh_ops(host.hv),
        }


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

MITIGATIONS: Dict[str, Type[Mitigation]] = {}


def register(cls: Type[Mitigation]) -> Type[Mitigation]:
    """Class decorator: add *cls* to the mitigation registry."""
    if not cls.name:
        raise MitigationError(f"{cls.__name__} must set a non-empty name")
    existing = MITIGATIONS.get(cls.name)
    if existing is not None and existing is not cls:
        raise MitigationError(f"mitigation {cls.name!r} already registered")
    unknown = set(cls.enforced_audit_kinds) - set(ALL_AUDIT_KINDS)
    if unknown:
        raise MitigationError(
            f"{cls.__name__}.enforced_audit_kinds has unknown kinds {sorted(unknown)}"
        )
    MITIGATIONS[cls.name] = cls
    return cls


def _ensure_registered() -> None:
    from repro.mitigations import impls  # noqa: F401  (registers on import)


def mitigation_names() -> tuple[str, ...]:
    """All registered mitigation names, sorted."""
    _ensure_registered()
    return tuple(sorted(MITIGATIONS))


def make_mitigation(name: str, **knobs) -> Mitigation:
    """A fresh instance of the registered mitigation *name*."""
    _ensure_registered()
    cls = MITIGATIONS.get(name)
    if cls is None:
        raise MitigationError(
            f"unknown mitigation {name!r}; know {', '.join(sorted(MITIGATIONS))}"
        )
    return cls(**knobs)
