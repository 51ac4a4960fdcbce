"""Runtime DRAM health monitoring — the EDAC/mcelog analogue.

Production hosts watch the memory controller's corrected-error stream:
a row whose correctable-error (CE) rate climbs is a row whose cells are
degrading, and the standard playbook (Linux EDAC, mcelog's page
offlining, cloud fleet policies) escalates from *counting* to *not
allocating there anymore* to *migrating the data off and retiring the
pages*.  :class:`HealthMonitor` implements that playbook on top of the
simulator's ECC event stream, at row-group granularity — the natural
offlining unit here, because pages interleave across every bank of a
socket (see ``core.remediation``).

Per row group the monitor keeps a **leaky bucket**: every CE adds 1,
every uncorrectable error adds ``ue_weight``, and the level drains at
``leak_per_second`` of simulated time.  Crossing thresholds escalates:

- ``watch_threshold`` — the row group is noted as suspicious;
- ``soak_threshold``  — *soak*: free pages in the row group are
  quarantined so no new allocation lands there (allocated pages stay);
- ``offline_threshold`` — live remediation: still-allocated pages are
  migrated to fresh frames in the same subarray group (preserving the
  Siloz isolation invariant) and the row group is offlined.

Everything is driven by the DRAM module's simulated clock, so a given
fault plan produces a byte-identical escalation timeline on every run.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from enum import Enum

from repro import obs
from repro.dram.ecc import EccEvent, EccOutcome
from repro.errors import HvError, ReproError
from repro.log import get_logger

_log = get_logger("hv.health")


class HealthError(ReproError):
    """Invalid health policy or monitor misuse."""


class HealthState(Enum):
    """Escalation ladder for one row group."""

    OK = "ok"
    WATCH = "watch"
    SOAK = "soak"  # no new allocations; existing pages await migration
    OFFLINED = "offlined"  # migrated away and removed from circulation
    DEFERRED = "deferred"  # offlining attempted, some pages unmovable yet


@dataclass(frozen=True)
class HealthPolicy:
    """Leaky-bucket thresholds and rates (all in 'error units').

    Defaults are scaled-down fleet policy: a handful of CEs in quick
    succession escalates, while the same errors spread over enough
    simulated time leak away harmlessly.
    """

    watch_threshold: float = 3.0
    soak_threshold: float = 6.0
    offline_threshold: float = 12.0
    #: Bucket drain rate per simulated second.
    leak_per_second: float = 1.0
    #: Bucket increment for an uncorrectable error (CEs add 1.0).
    ue_weight: float = 8.0

    def __post_init__(self) -> None:
        if not 0 < self.watch_threshold < self.soak_threshold < self.offline_threshold:
            raise HealthError(
                "thresholds must satisfy 0 < watch < soak < offline, got "
                f"{self.watch_threshold} / {self.soak_threshold} / "
                f"{self.offline_threshold}"
            )
        if self.leak_per_second < 0:
            raise HealthError("leak_per_second must be non-negative")
        if self.ue_weight <= 0:
            raise HealthError("ue_weight must be positive")


@dataclass
class RowGroupHealth:
    """Leaky-bucket state for one (socket, bank-local row) row group."""

    socket: int
    row: int
    level: float = 0.0
    last_update: float = 0.0
    state: HealthState = HealthState.OK
    ce_count: int = 0
    ue_count: int = 0


class HealthMonitor:
    """Watches one hypervisor's ECC stream and escalates per policy.

    Correctable errors arrive by subscription to the DRAM module's
    :class:`~repro.dram.ecc.EccEngine`; uncorrectable errors are fed by
    the MCE handler via :meth:`on_uncorrectable` so both streams land in
    the same ledger.  ``timeline`` is a deterministic, human-readable
    transcript of every state transition; ``reports`` collects the
    :class:`~repro.core.remediation.MigrationReport` of each live
    offlining this monitor triggered.
    """

    def __init__(self, hv, *, policy: HealthPolicy | None = None, auto_remediate: bool = True):
        self._hv = weakref.ref(hv)
        self.policy = policy or HealthPolicy()
        self.auto_remediate = auto_remediate
        self._groups: dict[tuple[int, int], RowGroupHealth] = {}
        self.timeline: list[str] = []
        self.reports: list = []
        self._attached = False

    @property
    def hv(self):
        """The watched hypervisor.  Held weakly: the hypervisor owns its
        monitor (``hv.health``), so a strong back-reference would make
        every monitored host a reference cycle."""
        hv = self._hv()
        if hv is None:
            raise HvError("health monitor: its hypervisor is gone")
        return hv

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self) -> "HealthMonitor":
        """Subscribe to the machine's ECC event stream; returns self."""
        if not self._attached:
            self.hv.machine.dram.ecc.subscribe(self.on_ecc_event)
            self._attached = True
        return self

    def detach(self) -> None:
        """Unsubscribe (counters and timeline are kept)."""
        if self._attached:
            self.hv.machine.dram.ecc.unsubscribe(self.on_ecc_event)
            self._attached = False

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------

    def on_ecc_event(self, event: EccEvent) -> None:
        """ECC engine callback: CEs and UEs feed the bucket; silent
        (3+-bit) corruption is invisible to hardware, hence ignored."""
        if event.outcome is EccOutcome.CORRECTED:
            self._bump(event.socket, event.row, 1.0, event.when, ue=False)
        elif event.outcome is EccOutcome.UNCORRECTABLE:
            self._bump(
                event.socket, event.row, self.policy.ue_weight, event.when, ue=True
            )

    def on_uncorrectable(self, hpa: int) -> None:
        """MCE-handler feed: an uncorrectable error was *consumed* at
        this host address (same ledger as the ECC stream, so a UE storm
        escalates even when patrol scrubbing never sees the row)."""
        socket, _bank, _channel, row, _col = self.hv.machine.dram.mapping.decode_flat(hpa)
        self._bump(
            socket,
            row,
            self.policy.ue_weight,
            self.hv.machine.dram.clock,
            ue=True,
        )

    # ------------------------------------------------------------------
    # Bucket mechanics
    # ------------------------------------------------------------------

    def _group(self, socket: int, row: int) -> RowGroupHealth:
        key = (socket, row)
        if key not in self._groups:
            self._groups[key] = RowGroupHealth(socket=socket, row=row)
        return self._groups[key]

    def _decay(self, rg: RowGroupHealth, now: float) -> None:
        if now > rg.last_update:
            rg.level = max(0.0, rg.level - (now - rg.last_update) * self.policy.leak_per_second)
        rg.last_update = max(rg.last_update, now)

    def _bump(self, socket: int, row: int, amount: float, when: float, *, ue: bool) -> None:
        rg = self._group(socket, row)
        self._decay(rg, when)
        rg.level += amount
        if ue:
            rg.ue_count += 1
        else:
            rg.ce_count += 1
        self._evaluate(rg, when)

    def _note(self, when: float, message: str) -> None:
        line = f"t={when:.6f} {message}"
        self.timeline.append(line)
        _log.info("%s", line)

    def _transition(
        self, rg: RowGroupHealth, new: HealthState, now: float,
        *, old: HealthState | None = None,
    ) -> None:
        """Move a row group to *new*, emitting the typed trace event."""
        previous = old if old is not None else rg.state
        rg.state = new
        if obs.ENABLED:
            obs.emit(
                obs.HealthTransitionEvent(
                    socket=rg.socket,
                    row=rg.row,
                    old=previous.value,
                    new=new.value,
                    level=rg.level,
                    when=now,
                )
            )

    # ------------------------------------------------------------------
    # Escalation ladder
    # ------------------------------------------------------------------

    def _evaluate(self, rg: RowGroupHealth, now: float) -> None:
        where = f"row group (s{rg.socket} r{rg.row})"
        pol = self.policy
        if rg.state in (HealthState.OFFLINED, HealthState.DEFERRED):
            return
        # De-escalation: a fully drained bucket clears suspicion.
        if rg.level == 0.0 and rg.state in (HealthState.WATCH, HealthState.SOAK):
            if rg.state is HealthState.SOAK:
                self._release_soak(rg)
            self._transition(rg, HealthState.OK, now)
            self._note(now, f"{where} recovered: bucket drained, back to ok")
            return
        # Escalation (sequential so one heavy event can climb several rungs).
        if rg.state is HealthState.OK and rg.level >= pol.watch_threshold:
            self._transition(rg, HealthState.WATCH, now)
            self._note(
                now,
                f"{where} -> watch (level {rg.level:.1f}, "
                f"ce={rg.ce_count} ue={rg.ue_count})",
            )
        if rg.state is HealthState.WATCH and rg.level >= pol.soak_threshold:
            self._transition(rg, HealthState.SOAK, now)
            soaked = self._apply_soak(rg)
            self._note(
                now,
                f"{where} -> soak (level {rg.level:.1f}): "
                f"{soaked} free bytes quarantined",
            )
        if rg.state is HealthState.SOAK and rg.level >= pol.offline_threshold:
            if self.auto_remediate:
                self._offline(rg, now)
            else:
                self._note(
                    now,
                    f"{where} exceeds offline threshold "
                    f"(level {rg.level:.1f}); auto-remediation disabled",
                )

    def _row_group_ranges(self, rg: RowGroupHealth):
        return self.hv.machine.mapping.row_group_ranges(rg.socket, rg.row)

    def _apply_soak(self, rg: RowGroupHealth) -> int:
        """Quarantine the row group's free pages on their owning nodes."""
        from repro.errors import MmError

        soaked = 0
        for r in self._row_group_ranges(rg):
            try:
                node = self.hv.topology.node_of_addr(r.start)
            except MmError:
                continue  # range not under any node (already carved out)
            soaked += node.quarantine_range(r)
        return soaked

    def _release_soak(self, rg: RowGroupHealth) -> int:
        """Return a recovered row group's quarantined pages to service."""
        from repro.errors import MmError

        released = 0
        for r in self._row_group_ranges(rg):
            try:
                node = self.hv.topology.node_of_addr(r.start)
            except MmError:
                continue
            released += node.release_quarantine(r)
        return released

    def _offline(self, rg: RowGroupHealth, now: float) -> None:
        from repro.core.remediation import offline_row_group_live

        # Flip the state *before* migrating: copying pages off the sick
        # row group reads it (with ECC), which emits further corrected-
        # error events that re-enter this monitor.  OFFLINED/DEFERRED
        # short-circuit _evaluate, so the re-entry is harmless.
        before = rg.state
        rg.state = HealthState.OFFLINED
        report = offline_row_group_live(self.hv, rg.socket, rg.row)
        self.reports.append(report)
        if report.complete:
            self._transition(rg, HealthState.OFFLINED, now, old=before)
            self._note(
                now,
                f"row group (s{rg.socket} r{rg.row}) -> offlined: "
                f"{len(report.migrated)} block(s) migrated, "
                f"{report.offlined_bytes} bytes retired",
            )
        else:
            self._transition(rg, HealthState.DEFERRED, now, old=before)
            self._note(
                now,
                f"row group (s{rg.socket} r{rg.row}) -> deferred: "
                f"{len(report.deferred)} block(s) could not move yet",
            )

    def retry_deferred(self) -> list:
        """Re-attempt every deferred offlining (call after memory frees
        up); returns the new reports.  Completed ranges move to
        OFFLINED and leave the pending list."""
        from repro.core.remediation import offline_row_group_live

        out = []
        for item in list(self.hv.offline.pending):
            socket, _bank, _channel, row, _col = self.hv.machine.dram.mapping.decode_flat(
                item.range.start
            )
            report = offline_row_group_live(self.hv, socket, row, reason=item.reason)
            self.reports.append(report)
            out.append(report)
            rg = self._group(socket, row)
            if report.complete:
                self.hv.offline.resolve_pending(item.range)
                self._transition(
                    rg, HealthState.OFFLINED, self.hv.machine.dram.clock
                )
                self._note(
                    self.hv.machine.dram.clock,
                    f"row group (s{rg.socket} r{rg.row}) deferred offline "
                    "completed on retry",
                )
        return out

    def poll(self) -> None:
        """Decay every bucket to the current simulated clock and apply
        de-escalations (watch/soak back to ok once drained).  Escalation
        happens eagerly on events; draining only happens with time, so
        something must look at the clock — this is that something (a
        periodic health-daemon tick)."""
        now = self.hv.machine.dram.clock
        for key in sorted(self._groups):
            rg = self._groups[key]
            self._decay(rg, now)
            self._evaluate(rg, now)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def state_of(self, socket: int, row: int) -> HealthState:
        """Current escalation state of a row group (OK if never seen)."""
        rg = self._groups.get((socket, row))
        return rg.state if rg else HealthState.OK

    def level_of(self, socket: int, row: int) -> float:
        """Bucket level of a row group, decayed to the current clock."""
        rg = self._groups.get((socket, row))
        if rg is None:
            return 0.0
        self._decay(rg, self.hv.machine.dram.clock)
        return rg.level

    @property
    def tracked(self) -> list[RowGroupHealth]:
        """Every row group the monitor has seen errors on."""
        return [self._groups[k] for k in sorted(self._groups)]

    def snapshot(self) -> dict:
        """Deterministic plain-data view of every tracked row group
        (state + error counts), keyed ``s<socket>r<row>`` in sorted
        order — shard payloads embed this so a chaos campaign's merge
        digest covers the health aftermath of an injected UE storm."""
        return {
            f"s{rg.socket}r{rg.row}": {
                "state": rg.state.value,
                "ce": rg.ce_count,
                "ue": rg.ue_count,
            }
            for rg in self.tracked
        }
