"""Fleet-wide VM placement schedulers.

A scheduler ranks the hosts that *can* take a :class:`VmSpec` (by the
same §5.3 admission arithmetic ``SilozHypervisor._place_vm`` applies:
enough free bytes across unreserved guest-group nodes, plus the ROM
slack) and the fleet places on the first candidate that accepts.  Three
policies ship, mirroring the classic bin-packing trade-offs Citadel-style
domain-aware allocators study:

- **first-fit** — lowest host id that fits; fast, fragments the tail.
- **best-fit** — the tightest fit (least guest headroom left after the
  placement); packs hosts densely, keeps whole hosts free for big VMs.
- **spread** — the loosest fit (most free guest bytes, fewest tenants);
  evens load and blast radius at the cost of acceptance under pressure.

All three enforce the §4.2 page-size constraint (a VM's memory must be
a whole number of the host's 2 MiB/1 GiB-analogue backing pages) and
never propose a host whose free subarray-group nodes cannot hold the
request — the one-tenant-per-group invariant is enforced underneath by
``SilozHypervisor`` and re-asserted by :meth:`Host.create_vm`.
"""

from __future__ import annotations

from repro.errors import FleetError, PlacementError
from repro.hv.hypervisor import VmSpec, admission_bytes
from repro.log import get_logger

from repro.fleet.host import Fleet, Host

_log = get_logger("fleet.scheduler")


def spec_page_aligned(host: Host, spec: VmSpec) -> bool:
    """§4.2: guest RAM must be a whole number of backing pages."""
    return spec.memory_bytes % host.hv.backing_page_bytes == 0


def host_fits(host: Host, spec: VmSpec) -> bool:
    """Whether *host* can currently admit *spec*.

    Sufficient and necessary for ``_place_vm`` to succeed: the host
    placement loop accumulates free bytes over every unreserved guest
    node, so fitting is exactly "total free guest bytes >= needed".
    """
    if not spec_page_aligned(host, spec):
        return False
    if spec.socket >= host.hv.machine.geom.sockets:
        return False
    needed = admission_bytes(spec, host.hv.backing_page_bytes)
    return host.capacity().free_guest_bytes >= needed


class PlacementScheduler:
    """Base: subclasses implement the ranking key."""

    name = "?"

    def _key(self, host: Host, spec: VmSpec):
        raise NotImplementedError

    def rank(self, fleet: Fleet, spec: VmSpec, *, exclude: tuple[int, ...] = ()):
        """Hosts that fit *spec*, best candidate first."""
        fitting = [
            h
            for h in fleet.hosts
            if h.host_id not in exclude and host_fits(h, spec)
        ]
        return sorted(fitting, key=lambda h: (self._key(h, spec), h.host_id))

    def place(self, fleet: Fleet, spec: VmSpec, *, exclude: tuple[int, ...] = ()) -> Host:
        """Place *spec* on the best-ranked host that accepts it.

        A candidate whose estimate went stale (another placement landed
        between ranking and admission) is skipped; exhausting every
        candidate raises a typed capacity :class:`PlacementError` whose
        counts aggregate the fleet's current free groups.
        """
        for host in self.rank(fleet, spec, exclude=exclude):
            try:
                host.create_vm(spec)
                return host
            except PlacementError as exc:
                if not exc.is_capacity:
                    raise
                _log.info(
                    "host %d turned down %s (stale estimate): %s",
                    host.host_id, spec.name, exc,
                )
        free_groups = sum(
            len(h.capacity().free_guest_node_ids)
            for h in fleet.hosts
            if h.host_id not in exclude
        )
        raise PlacementError(
            f"no host in the fleet can place VM {spec.name!r} "
            f"({spec.memory_bytes:#x} bytes)",
            requested_groups=1,
            available_groups=free_groups,
        )


class FirstFitScheduler(PlacementScheduler):
    """Lowest host id that fits."""

    name = "first-fit"

    def _key(self, host: Host, spec: VmSpec):
        return 0  # ranking falls through to the host-id tiebreak


class BestFitScheduler(PlacementScheduler):
    """Tightest fit: least guest headroom left after placing."""

    name = "best-fit"

    def _key(self, host: Host, spec: VmSpec):
        needed = admission_bytes(spec, host.hv.backing_page_bytes)
        return host.capacity().free_guest_bytes - needed


class SpreadScheduler(PlacementScheduler):
    """Loosest fit: fewest tenants, then most free guest bytes."""

    name = "spread"

    def _key(self, host: Host, spec: VmSpec):
        cap = host.capacity()
        return (cap.vm_count, -cap.free_guest_bytes)


SCHEDULERS: dict[str, type[PlacementScheduler]] = {
    cls.name: cls
    for cls in (FirstFitScheduler, BestFitScheduler, SpreadScheduler)
}


def make_scheduler(name: str) -> PlacementScheduler:
    """Scheduler by policy name (the CLI's ``--policy`` values)."""
    try:
        return SCHEDULERS[name]()
    except KeyError:
        raise FleetError(
            f"unknown placement policy {name!r}; know {sorted(SCHEDULERS)}"
        ) from None
