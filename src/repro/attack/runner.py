"""In-VM attack orchestration (paper §7.1).

``attack_from_vm`` reproduces the paper's security experiment: a guest
runs the Blacksmith fuzzer against the memory *it* owns (the only rows a
guest can activate), and :func:`repro.core.policy.classify_flips`
classifies every induced flip — inside the attacker's own subarray
groups, or escaped into another VM, the host, or EPT rows.  Under Siloz
the escaped count must be zero (Table 3); under the baseline it
generally is not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attack.blacksmith import BlacksmithFuzzer, FuzzReport
from repro.core.policy import classify_flips
from repro.dram.disturbance import BitFlip
from repro.dram.mapping import merge_ranges
from repro.errors import AttackError
from repro.log import get_logger
from repro.hv.hypervisor import Hypervisor
from repro.hv.vm import VirtualMachine


_log = get_logger("attack.runner")


def rows_owned_by_vm(hv: Hypervisor, vm: VirtualMachine) -> dict[int, list[int]]:
    """socket -> sorted bank-local rows fully backed by the VM.

    A row group spans every bank at one row index, so owning a whole
    row group means owning that row in every bank.  The backing is
    coalesced first: it is kept in guest-physical order, and a row group
    can straddle two of its extents that are adjacent in host space."""
    geom = hv.machine.geom
    mapping = hv.machine.mapping
    step = geom.row_group_bytes
    rows: dict[int, set[int]] = {}
    for r in merge_ranges(vm.backing):
        start = -(-r.start // step) * step  # first aligned row group
        hpa = start
        while hpa + step <= r.end:
            socket, _bank, _channel, row, _col = mapping.decode_flat(hpa)
            rows.setdefault(socket, set()).add(row)
            hpa += step
    return {s: sorted(v) for s, v in rows.items()}


def _runs(rows: list[int]) -> list[range]:
    """Contiguous runs within a sorted row list."""
    runs: list[range] = []
    start = prev = None
    for row in rows:
        if start is None:
            start = prev = row
        elif row == prev + 1:
            prev = row
        else:
            runs.append(range(start, prev + 1))
            start = prev = row
    if start is not None:
        runs.append(range(start, prev + 1))
    return runs


@dataclass
class AttackOutcome:
    """Classified result of one in-VM hammering campaign."""

    attacker: str
    report: FuzzReport
    attacker_groups: frozenset
    flips_inside: list[BitFlip] = field(default_factory=list)
    flips_escaped: list[BitFlip] = field(default_factory=list)
    #: victim VM name -> flips that corrupted its current backing
    victim_flips: dict[str, int] = field(default_factory=dict)

    @property
    def contained(self) -> bool:
        """The Table 3 verdict: did every flip stay in-domain?"""
        return not self.flips_escaped

    def summary(self) -> str:
        """One-line human-readable campaign summary."""
        return (
            f"attacker={self.attacker}: {self.report.flip_count} flips from "
            f"{self.report.activations} ACTs over {self.report.patterns_tried} "
            f"patterns; inside={len(self.flips_inside)} "
            f"escaped={len(self.flips_escaped)} victims={self.victim_flips}"
        )


def attack_from_vm(
    hv: Hypervisor,
    attacker: VirtualMachine,
    *,
    seed: int = 0,
    pattern_budget: int = 40,
    banks_per_socket: int | None = 4,
) -> AttackOutcome:
    """Run the fuzzer from inside *attacker* and classify every flip.

    ``banks_per_socket`` samples that many banks per socket for speed
    (flip physics are per-bank identical); ``None`` uses all banks.
    """
    if pattern_budget <= 0:
        raise AttackError(f"pattern budget must be positive, got {pattern_budget}")
    geom = hv.machine.geom
    owned = rows_owned_by_vm(hv, attacker)
    if not owned:
        raise AttackError(f"VM {attacker.name} owns no full row groups")
    targets = []
    for socket, rows in owned.items():
        banks = range(geom.banks_per_socket)
        if banks_per_socket is not None:
            banks = range(min(banks_per_socket, geom.banks_per_socket))
        for bank in banks:
            for run in _runs(rows):
                targets.append((socket, bank, run))
    fuzzer = BlacksmithFuzzer(hv.machine.dram, targets, seed=seed)
    report = fuzzer.run(pattern_budget=pattern_budget)

    verdict = classify_flips(hv, attacker, report.flips)
    outcome = AttackOutcome(
        attacker=attacker.name,
        report=report,
        attacker_groups=verdict.groups,
        flips_inside=verdict.inside,
        flips_escaped=verdict.escaped,
        victim_flips=verdict.victim_flips,
    )
    _log.info("%s", outcome.summary())
    return outcome


def first_tenant_attack(
    hv: Hypervisor, *, seed: int, pattern_budget: int
) -> tuple[dict, AttackOutcome | None]:
    """Containment campaign from *hv*'s first tenant, condensed to the
    result keys the fleet host task and ``repro serve``'s ``run_attack``
    share (each caller adds its own).  An idle host has no outcome."""
    vms = list(hv.vms.values())
    if not vms:
        return {"idle": True, "flips": 0, "contained": True}, None
    outcome = attack_from_vm(
        hv, vms[0], seed=seed, pattern_budget=pattern_budget
    )
    return {
        "idle": False,
        "attacker": vms[0].name,
        "flips": len(outcome.flips_inside) + len(outcome.flips_escaped),
        "escaped": len(outcome.flips_escaped),
        "victim_flips": sum(outcome.victim_flips.values()),
        "contained": outcome.contained,
    }, outcome


def host_contained(result: dict) -> bool:
    """The one host-level containment verdict over a
    :func:`first_tenant_attack` result: the host was attacked, every
    flip stayed in the attacker's groups, and no other tenant was
    corrupted.  Idle hosts, failed hosts and health-scenario hosts were
    never attacked, so they are not contained."""
    return (
        result.get("idle") is False
        and result.get("contained") is True
        and not result.get("victim_flips")
    )
