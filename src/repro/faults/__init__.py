"""Deterministic DRAM fault injection (the runtime-robustness harness).

The package splits cleanly in three:

- :mod:`repro.faults.plan` — declarative, seed-resolved
  :class:`FaultPlan`/:class:`FaultSpec` schedules (what fails, where,
  when), rebuilt identically from their generator arguments;
- :mod:`repro.faults.injector` — :class:`FaultInjector`, the
  :class:`~repro.dram.module.DramHook` that fires a plan against a live
  :class:`~repro.dram.module.SimulatedDram`, and :func:`run_ecc_storm`,
  the storm driver every CE/UE storm runs through;
- :mod:`repro.faults.scenario` — the end-to-end CE-storm scenario that
  exercises monitoring, live migration, and offlining, and verifies the
  isolation invariant afterwards.
"""

from repro.faults.injector import FaultEvent, FaultInjector, run_ecc_storm
from repro.faults.plan import FaultKind, FaultPlan, FaultPlanError, FaultSpec
from repro.faults.scenario import ScenarioResult, run_ce_storm_scenario

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "ScenarioResult",
    "run_ce_storm_scenario",
    "run_ecc_storm",
]
