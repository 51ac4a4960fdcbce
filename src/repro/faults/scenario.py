"""End-to-end CE-storm scenario: inject → monitor → migrate → verify.

This is the fault-handling subsystem's acceptance test, runnable from
the CLI (``repro health``), pytest, and CI:

1. boot Siloz on a small machine and start two tenants;
2. write sentinel patterns through both guests' RAM;
3. plant a seeded correctable-error storm on a row group backing the
   first tenant and let the health monitor watch the ECC stream while
   simulated time passes and patrol scrubbing runs;
4. the monitor escalates watch → soak → migrate-and-offline;
5. verify the hard claims: every sentinel byte still reads back
   correctly through the remapped EPT, the sick row group is offlined,
   no VM was killed, and the isolation audit is still clean (migration
   stayed inside each VM's own subarray groups).

The target gpas come from :meth:`~repro.hv.vm.VirtualMachine.extents`
(pure arithmetic over the backing lists, which stay in guest-physical
order): translating every page through the EPT would cost thousands of
DRAM activations and pollute the very error counters the scenario
asserts over.

Everything is keyed off the DRAM module's simulated clock and a caller
seed, so the same seed produces a byte-identical transcript — replays
can be diffed, and :meth:`ScenarioResult.replay_key` collapses a run to
one comparable digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.core.policy import audit_hypervisor
from repro.core.siloz import SilozHypervisor
from repro.faults.injector import STORM_INTERVAL, run_ecc_storm
from repro.hv.health import HealthPolicy, HealthState
from repro.hv.machine import Machine
from repro.hv.hypervisor import VmSpec
from repro.log import get_logger
from repro.units import CACHE_LINE, MiB

_log = get_logger("faults.scenario")

#: Distance between sentinel probes: one per backing block, so every
#: block (including whichever gets migrated) carries a checked pattern.
_SENTINEL_STRIDE = 64 * 1024
_SENTINEL_BYTES = CACHE_LINE


def _sentinel(vm_name: str, gpa: int) -> bytes:
    """Deterministic per-(VM, gpa) pattern, cheap to recompute."""
    seedling = (gpa // _SENTINEL_STRIDE + sum(vm_name.encode())) & 0xFF
    return bytes((seedling + i * 7) & 0xFF for i in range(_SENTINEL_BYTES))


@dataclass
class ScenarioResult:
    """Everything a run produced, plus the pass/fail verdicts."""

    seed: int
    socket: int
    row: int
    storm_errors: int
    transcript: list[str] = field(default_factory=list)
    #: Verdicts (all must hold for success).
    data_intact: bool = False
    row_group_offlined: bool = False
    no_vm_killed: bool = False
    audit_clean: bool = False
    migrated_blocks: int = 0
    violations: list = field(default_factory=list)

    @property
    def success(self) -> bool:
        """The ISSUE's acceptance criterion, in one boolean."""
        return (
            self.data_intact
            and self.row_group_offlined
            and self.no_vm_killed
            and self.audit_clean
        )

    def replay_key(self) -> str:
        """Digest of the full transcript: equal seeds must yield equal
        keys (the determinism/replay acceptance criterion)."""
        return hashlib.sha256("\n".join(self.transcript).encode()).hexdigest()


def run_ce_storm_scenario(
    *,
    seed: int = 0,
    storm_errors: int = 20,
    interval: float = STORM_INTERVAL,
    vm_bytes: int = 2 * MiB,
    policy: HealthPolicy | None = None,
    backend: str = "scalar",
) -> ScenarioResult:
    """Run the injected CE-storm scenario end to end (see module doc).

    ``backend`` selects the simulation hot path (scalar reference or
    the vectorized engine); the transcript and replay key are
    backend-independent — the differential tests assert exactly that.
    """
    machine = Machine.small(seed=seed, backend=backend)
    hv = SilozHypervisor.boot(machine)
    tenant = hv.create_vm(VmSpec(name="tenant", memory_bytes=vm_bytes))
    neighbor = hv.create_vm(VmSpec(name="neighbor", memory_bytes=vm_bytes))
    monitor = hv.enable_health_monitoring(policy or HealthPolicy())
    dram = machine.dram

    # Sentinels throughout both guests' RAM (one probe per backing block).
    probes: dict[str, list[tuple[int, bytes]]] = {}
    for vm in (tenant, neighbor):
        vm_probes = []
        ram = next(r for r in vm.regions if r.name == "ram")
        for gpa in range(ram.gpa, ram.gpa + ram.size, _SENTINEL_STRIDE):
            pattern = _sentinel(vm.name, gpa)
            vm.write(gpa, pattern)
            vm_probes.append((gpa, pattern))
        probes[vm.name] = vm_probes

    # Target: the row group behind the tenant's first backing block.
    target_hpa = tenant.backing[0].start
    socket, bank, _channel, row, _col = dram.mapping.decode_flat(target_hpa)
    rg = dram.mapping.row_group_ranges(socket, row)[0]
    unmediated = {r.name for r in tenant.regions if r.unmediated}
    target_gpas = [
        gpa + off
        for name, gpa, hpa, size in tenant.extents()
        if name in unmediated
        for off in range(0, size, _SENTINEL_STRIDE)
        if hpa + off in rg
    ]

    result = ScenarioResult(
        seed=seed, socket=socket, row=row, storm_errors=storm_errors
    )
    say = result.transcript.append
    say(f"scenario seed={seed} storm_errors={storm_errors} interval={interval}")
    say(f"target row group (s{socket} r{row}) at {rg}")

    # The storm: idle time passes, faults fire, patrol scrubbing finds
    # and heals them — each heal is one corrected-error event feeding
    # the monitor's leaky bucket.
    injector = run_ecc_storm(
        dram, monitor, socket, bank, row, errors=storm_errors, seed=seed, interval=interval
    )
    for spec in injector.plan.specs:
        say(f"plan t={spec.at_clock:.6f} {spec.describe()}")
    for event in injector.events:
        say(str(event))
    result.transcript.extend(monitor.timeline)
    for report in monitor.reports:
        say(report.summary())
        result.migrated_blocks += len(report.migrated)

    # -- verification ---------------------------------------------------
    intact = True
    for vm in (tenant, neighbor):
        for gpa, pattern in probes[vm.name]:
            got = vm.read(gpa, len(pattern))
            if got != pattern:
                intact = False
                say(f"DATA LOSS: {vm.name} gpa={gpa:#x}")
    result.data_intact = intact
    say(f"sentinels intact: {intact}")

    for gpa in target_gpas:
        now_hpa = tenant.translate(gpa)
        say(f"tenant gpa {gpa:#x} now backed by hpa {now_hpa:#x}")
        if now_hpa in rg:
            say(f"STALE MAPPING: gpa {gpa:#x} still points into {rg}")

    result.row_group_offlined = (
        hv.offline.is_offline(rg.start)
        and hv.offline.is_offline(rg.end - 1)
        and monitor.state_of(socket, row) is HealthState.OFFLINED
        and all(tenant.translate(g) not in rg for g in target_gpas)
    )
    say(f"row group offlined: {result.row_group_offlined}")

    result.no_vm_killed = (
        tenant.state.value == "running" and neighbor.state.value == "running"
    )
    say(f"no VM killed: {result.no_vm_killed}")

    result.violations = audit_hypervisor(hv)
    result.audit_clean = not result.violations
    for v in result.violations:
        say(f"VIOLATION: {v}")
    say(f"isolation audit clean: {result.audit_clean}")
    say(
        f"verdict: {'PASS' if result.success else 'FAIL'} "
        f"({result.migrated_blocks} block(s) migrated)"
    )
    _log.info("ce-storm scenario: %s", result.transcript[-1])
    return result
