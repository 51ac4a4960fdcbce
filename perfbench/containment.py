"""``containment``: the Table 3 campaign (paper section 7.1).

A Siloz guest on ``Machine.small`` runs extended Blacksmith against a
co-located victim on each of the six ``DisturbanceProfile.dimm_fleet()``
DIMMs, vectorized backend, fixed pattern budget.  One round runs one
campaign per DIMM; one operation is one DIMM campaign (host boot, two
VMs, attack, placement audit).

Each DIMM's hammering schedule is fixed, as one Blacksmith
configuration would be; the workload seed draws the simulated cells
(which rows flip, and where), so every seed is a different set of
physical modules under the same attack, and does the same number of
activations.
"""

from __future__ import annotations

from repro import attack
from repro.core import SilozHypervisor, audit_hypervisor
from repro.dram.disturbance import DisturbanceProfile
from repro.hv import Machine, VmSpec
from repro.units import MiB

from perfbench.speed import SpeedProbe
from perfbench.common import Round, RoundWorkload, digest

PATTERN_BUDGET = {"full": 35, "tiny": 4}
DIMMS = {"full": 6, "tiny": 2}


class Containment(RoundWorkload):
    def __init__(self, seed: int, shape: str, probe: SpeedProbe):
        super().__init__(probe)
        self.budget = PATTERN_BUDGET[shape]
        dimms = DisturbanceProfile.dimm_fleet()[: DIMMS[shape]]
        #: (DIMM, cell seed, pattern seed) per campaign.
        self.campaigns = [(dimm, 1000 * seed + i, i) for i, dimm in enumerate(dimms)]

    def _campaign(self, dimm: DisturbanceProfile, seed: int, pattern_seed: int):
        hv = SilozHypervisor.boot(
            Machine.small(seed=seed, profile=dimm, backend="vectorized")
        )
        attacker = hv.create_vm(VmSpec(name="attacker", memory_bytes=2 * MiB))
        hv.create_vm(VmSpec(name="victim", memory_bytes=2 * MiB))
        outcome = attack.attack_from_vm(
            hv, attacker, seed=pattern_seed, pattern_budget=self.budget
        )
        return outcome, audit_hypervisor(hv)

    def setup(self) -> None:
        # Warm the lazy tables (decode LUTs, numpy kernels) once.
        self._campaign(*self.campaigns[0])

    def round(self) -> Round:
        spans, parts, errors = [], [], []
        acts = failed = 0
        for dimm, seed, pattern_seed in self.campaigns:
            outcome, violations = self.time_op(
                spans, self._campaign, dimm, seed, pattern_seed
            )
            acts += outcome.report.activations
            problems = []
            if not outcome.flips_inside:
                problems.append("no flips inside the attacker's groups")
            if outcome.flips_escaped:
                problems.append(f"{len(outcome.flips_escaped)} flips escaped")
            if outcome.victim_flips:
                problems.append(f"victim corrupted {outcome.victim_flips}")
            if violations:
                problems.append(f"placement audit: {violations}")
            if problems:
                failed += 1
                errors.append(f"DIMM {dimm.name} seed {seed}: " + "; ".join(problems))
            parts.append(
                [
                    dimm.name,
                    seed,
                    outcome.summary(),
                    [[f.socket, f.bank, f.row, f.bit, f.aggressor_row, f.when]
                     for f in outcome.report.flips],
                ]
            )
        return Round(
            digest=digest(parts),
            spans=spans,
            ops=len(self.campaigns),
            failed=failed,
            acts=acts,
            # The program counts no hammer accesses; each one opens a
            # row, so this is the activation count again.
            accesses=acts,
            hosts=len(self.campaigns),
            errors=errors,
        )
