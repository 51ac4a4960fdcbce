"""Deterministic fault injection into the simulated DRAM.

:class:`FaultInjector` registers as a :class:`~repro.dram.module.DramHook`
and fires the faults of a :class:`~repro.faults.plan.FaultPlan` when the
module's simulated clock reaches each spec's trigger.  Because the plan
is fully explicit and the hooks run synchronously inside DRAM
operations, two runs with the same plan against same-seeded modules
produce byte-identical DRAM state and event logs — the property the
ISSUE's replay acceptance criterion rests on.

Fault semantics:

- *Stuck-at* cells are enforced continuously: arming asserts the stuck
  value, and every subsequent write that restores the healthy value is
  re-corrupted on the spot (the cell "writes don't stick").
- *Retention-weak* cells decay ``retention_s`` after arming and then
  again ``retention_s`` after each decay — scrubbing heals the flip, the
  cell leaks it back, which is exactly the recurring-CE signature a
  health monitor must ride out or act on.
- *Late repairs* call :meth:`SimulatedDram.add_repair` at trigger time,
  dynamically moving a media row onto spare cells (potentially in a
  different subarray — a runtime isolation break the runtime remediation
  path must handle, where the boot path of §6 no longer can).
- *ECC-word* faults toggle their bits immediately at trigger time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.dram.module import DramHook, SimulatedDram
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.log import get_logger

_log = get_logger("faults.injector")


@dataclass(frozen=True)
class FaultEvent:
    """One thing the injector did, timestamped in simulated seconds."""

    when: float
    action: str  # "arm" | "flip" | "repair" | "enforce"
    detail: str

    def __str__(self) -> str:
        return f"t={self.when:.6f} {self.action}: {self.detail}"


@dataclass
class _WeakCell:
    """Armed retention-weak cell state (next decay deadline)."""

    spec: FaultSpec
    next_decay: float


class FaultInjector(DramHook):
    """Replays a :class:`FaultPlan` against one :class:`SimulatedDram`.

    Construct, then :meth:`attach`; every DRAM activation, write, and
    idle-time advance gives the injector a chance to fire due faults and
    re-enforce stuck cells.  ``events`` is the deterministic audit log.
    """

    def __init__(self, dram: SimulatedDram, plan: FaultPlan):
        self.dram = dram
        self.plan = plan
        self._pending: list[FaultSpec] = sorted(
            plan.specs, key=lambda s: s.at_clock, reverse=True
        )  # pop() yields earliest first
        self._stuck: list[FaultSpec] = []
        self._weak: list[_WeakCell] = []
        self.events: list[FaultEvent] = []
        self._attached = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def attach(self) -> "FaultInjector":
        """Register with the DRAM module; returns self for chaining."""
        if not self._attached:
            self.dram.register_hook(self)
            self._attached = True
            self._service()  # faults due at t=0 fire immediately
        return self

    def detach(self) -> None:
        """Unregister from the DRAM module (armed state is kept)."""
        if self._attached:
            self.dram.unregister_hook(self)
            self._attached = False

    # ------------------------------------------------------------------
    # DramHook interface
    # ------------------------------------------------------------------

    def on_activate(self, dram: SimulatedDram, socket: int, bank: int, row: int) -> None:
        """Clock moved via an ACT: fire anything that came due."""
        self._service()

    def on_clock(self, dram: SimulatedDram) -> None:
        """Idle time passed: fire due faults and decay weak cells."""
        self._service()

    def on_write(self, dram: SimulatedDram, hpa: int, length: int) -> None:
        """Stores may have overwritten a stuck cell: re-corrupt it."""
        self._enforce_stuck()

    # ------------------------------------------------------------------
    # Firing machinery
    # ------------------------------------------------------------------

    def _service(self) -> None:
        now = self.dram.clock
        while self._pending and self._pending[-1].at_clock <= now:
            self._fire(self._pending.pop())
        self._decay_weak(now)
        self._enforce_stuck()

    def _record(self, action: str, detail: str) -> None:
        event = FaultEvent(when=self.dram.clock, action=action, detail=detail)
        self.events.append(event)
        if obs.ENABLED:
            obs.emit(
                obs.FaultInjectionEvent(
                    action=action, detail=detail, when=event.when
                )
            )
        _log.debug("%s", event)

    def _fire(self, spec: FaultSpec) -> None:
        if spec.kind is FaultKind.STUCK_AT:
            self._stuck.append(spec)
            self._record("arm", spec.describe())
        elif spec.kind is FaultKind.RETENTION_WEAK:
            self._weak.append(
                _WeakCell(spec=spec, next_decay=self.dram.clock + spec.retention_s)
            )
            self._record("arm", spec.describe())
        elif spec.kind is FaultKind.LATE_REPAIR:
            assert spec.spare_row is not None
            self.dram.add_repair(spec.socket, spec.bank, spec.row, spec.spare_row)
            self._record("repair", spec.describe())
        elif spec.kind is FaultKind.ECC_WORD:
            for bit in spec.row_bits:
                self.dram.inject_bit_error(spec.socket, spec.bank, spec.row, bit)
            self._record("flip", spec.describe())

    def _decay_weak(self, now: float) -> None:
        for cell in self._weak:
            spec = cell.spec
            assert spec.bit is not None
            while cell.next_decay <= now:
                flipped = spec.bit in self.dram.flip_bits_at(
                    spec.socket, spec.bank, spec.row
                )
                if not flipped:  # healthy again (scrubbed/rewritten): leak
                    self.dram.inject_bit_error(
                        spec.socket, spec.bank, spec.row, spec.bit
                    )
                    self._record("flip", f"retention decay: {spec.describe()}")
                cell.next_decay += spec.retention_s

    def _enforce_stuck(self) -> None:
        for spec in self._stuck:
            assert spec.bit is not None
            current = self.dram.bit_at(spec.socket, spec.bank, spec.row, spec.bit)
            if current != spec.stuck_value:
                self.dram.inject_bit_error(spec.socket, spec.bank, spec.row, spec.bit)
                self._record("enforce", spec.describe())


#: Simulated seconds between storm errors (and between patrol scrubs).
STORM_INTERVAL = 0.004


def run_ecc_storm(
    dram: SimulatedDram,
    monitor,
    socket: int,
    bank: int,
    row: int,
    *,
    errors: int,
    seed: int,
    uncorrectable: bool = False,
    interval: float = STORM_INTERVAL,
) -> FaultInjector:
    """Plant an ECC storm on one row and let a health *monitor* watch it.

    One error (single-bit, or two-bit when *uncorrectable*) fires every
    *interval* seconds of idle time; a patrol scrub after each step
    reports it, and two spare steps let the last one land before the
    monitor polls.  Returns the detached injector (``plan``, ``events``).
    """
    make_plan = FaultPlan.ue_storm if uncorrectable else FaultPlan.ce_storm
    plan = make_plan(
        socket,
        bank,
        row,
        errors=errors,
        words_per_row=dram.geom.row_bytes * 8 // 64,
        start=dram.clock + interval,
        interval=interval,
        seed=seed,
    )
    injector = FaultInjector(dram, plan).attach()
    for _ in range(errors + 2):
        dram.advance_time(interval)
        dram.patrol_scrub()
    monitor.poll()
    injector.detach()
    return injector
