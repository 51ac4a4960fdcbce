"""The registered mitigations: Siloz and its bake-off rivals.

Each class wires one defence into the :class:`~repro.mitigations.base.
Mitigation` interface.  The registry name is what ``repro bakeoff
--mitigations`` and :class:`~repro.fleet.host.HostSpec` use:

========================  ==================================================
``none``                  shared guest pool, no defence (the overhead floor)
``siloz``                 the paper: subarray-group nodes + EPT guard rows
``para``                  PARA-style probabilistic neighbour refresh
``catt``                  CATT-style row-aligned physical partitions
``domain-buddy``          domain-aware allocator: Siloz placement, no EPT
                          protection machinery (zero capacity loss)
``guard-rows``            shared pool + periodic offlined guard stripes
========================  ==================================================
"""

from __future__ import annotations

from typing import ClassVar, Optional

from repro.core.config import EptProtection, SilozConfig
from repro.core.siloz import SilozHypervisor
from repro.hv.hypervisor import Hypervisor
from repro.hv.machine import Machine
from repro.mitigations.base import Mitigation, register
from repro.mitigations.hypervisors import (
    CattHypervisor,
    GuardStripeHypervisor,
    SharedPoolHypervisor,
)
from repro.mitigations.para import ParaRefreshHook

#: Audit kinds enforceable without per-tenant subarray exclusivity.
#: "co-location" is deliberately absent: these mitigations accept (or
#: cannot see) tenants sharing subarray groups — the exposure the
#: attack matrix measures, not a malfunction.
_NON_EXCLUSIVE_KINDS: tuple[str, ...] = (
    "escape",
    "host-overlap",
    "mediated-misplaced",
    "guard-rows",
)


@register
class NoMitigation(Mitigation):
    """No defence at all: the containment floor and overhead baseline."""

    name: ClassVar[str] = "none"
    summary: ClassVar[str] = "shared guest pool, no Rowhammer defence"
    enforced_audit_kinds: ClassVar[tuple[str, ...]] = _NON_EXCLUSIVE_KINDS

    def boot(self, machine: Machine) -> Hypervisor:
        return SharedPoolHypervisor.boot(machine)


@register
class SilozMitigation(Mitigation):
    """The paper's design: one tenant per subarray group + EPT guards."""

    name: ClassVar[str] = "siloz"
    summary: ClassVar[str] = "subarray-group isolation domains (the paper)"

    def boot(self, machine: Machine) -> Hypervisor:
        return SilozHypervisor.boot(machine)


@register
class ParaMitigation(Mitigation):
    """Probabilistic adjacent-row refresh on the shared pool."""

    name: ClassVar[str] = "para"
    summary: ClassVar[str] = "PARA probabilistic neighbour refresh"
    enforced_audit_kinds: ClassVar[tuple[str, ...]] = _NON_EXCLUSIVE_KINDS

    def __init__(self, *, probability: float = 0.002, distance: int = 1):
        # Fail on bad knobs at construction, not first attach: the
        # throwaway hook runs the validation the real one will.
        ParaRefreshHook(probability=probability, distance=distance)
        self.probability = probability
        self.distance = distance
        self._hook: Optional[ParaRefreshHook] = None

    def boot(self, machine: Machine) -> Hypervisor:
        return SharedPoolHypervisor.boot(machine)

    def attach(self, hv: Hypervisor, *, seed: int = 0) -> None:
        self._hook = ParaRefreshHook(
            probability=self.probability, distance=self.distance, seed=seed
        )
        hv.machine.dram.register_hook(self._hook)

    def refresh_ops(self, hv: Hypervisor) -> int:
        return 0 if self._hook is None else self._hook.refreshes


@register
class CattMitigation(Mitigation):
    """Row-aligned physical partitions with trailing guard rows."""

    name: ClassVar[str] = "catt"
    summary: ClassVar[str] = "CATT physical partitioning (row-aligned)"
    # Partitions are exclusive per tenant (domain check stays on), but
    # their edges are row- not subarray-aligned, so subarray co-location
    # is accepted exposure rather than an invariant.
    enforced_audit_kinds: ClassVar[tuple[str, ...]] = _NON_EXCLUSIVE_KINDS

    def __init__(self, *, partitions_per_socket: int = 8, guard_rows: int = 1):
        self.partitions_per_socket = partitions_per_socket
        self.guard_rows = guard_rows

    def boot(self, machine: Machine) -> Hypervisor:
        return CattHypervisor.boot(
            machine,
            partitions_per_socket=self.partitions_per_socket,
            guard_rows=self.guard_rows,
        )


@register
class DomainBuddyMitigation(Mitigation):
    """Domain-aware allocation alone: Siloz placement, no EPT machinery.

    The strongest low-cost rival (cf. Saxena et al.): tenants still get
    exclusive subarray groups, but nothing is offlined and EPT pages
    come from the host pool — zero capacity loss, EPT integrity
    unprotected.  ``rows_per_subarray`` overrides the presumed domain
    size; a wrong presumption (smaller than physical) is the documented
    hole the matrix tests reproduce."""

    name: ClassVar[str] = "domain-buddy"
    summary: ClassVar[str] = "domain-aware buddy allocator, no EPT guards"

    def __init__(self, *, rows_per_subarray: int | None = None):
        self.rows_per_subarray = rows_per_subarray

    def boot(self, machine: Machine) -> Hypervisor:
        """Siloz placement over *presumed* domains, EPT guards off."""
        geom = machine.geom
        config = SilozConfig.scaled_for(
            geom,
            ept_protection=EptProtection.NONE,
            rows_per_subarray=self.rows_per_subarray or geom.rows_per_subarray,
        )
        return SilozHypervisor.boot(machine, config)


@register
class GuardRowsMitigation(Mitigation):
    """Guard stripes only: offlined rows every ``stripe_rows`` rows."""

    name: ClassVar[str] = "guard-rows"
    summary: ClassVar[str] = "periodic offlined guard stripes, shared pool"
    enforced_audit_kinds: ClassVar[tuple[str, ...]] = _NON_EXCLUSIVE_KINDS

    def __init__(self, *, stripe_rows: int = 32, guard_rows: int = 1):
        self.stripe_rows = stripe_rows
        self.guard_rows = guard_rows

    def boot(self, machine: Machine) -> Hypervisor:
        return GuardStripeHypervisor.boot(
            machine, stripe_rows=self.stripe_rows, guard_rows=self.guard_rows
        )
