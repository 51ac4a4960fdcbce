"""Rowhammer attack tooling (paper §7.1).

The paper evaluates Siloz by running an extended Blacksmith fuzzer
inside a VM and checking where bit flips land.  This package provides
the same machinery against the simulated stack:

- :mod:`repro.attack.patterns` — many-sided hammering patterns with
  decoy slots (the frequency/phase structure Blacksmith searches over),
- :mod:`repro.attack.hammer` — pattern execution primitives,
- :mod:`repro.attack.blacksmith` — the randomized fuzzer,
- :mod:`repro.attack.runner` — in-VM attack orchestration and flip
  classification (inside/outside the attacker's subarray groups).
"""

from repro.attack.patterns import HammerPattern
from repro.attack.hammer import hammer_pattern_rows, run_pattern
from repro.attack.blacksmith import BlacksmithFuzzer, FuzzReport
from repro.attack.runner import AttackOutcome, attack_from_vm
from repro.attack.mfit import infer_subarray_rows, verify_inference
from repro.attack.sidechannel import ProbeResult, drama_probe

__all__ = [
    "AttackOutcome",
    "BlacksmithFuzzer",
    "FuzzReport",
    "HammerPattern",
    "ProbeResult",
    "attack_from_vm",
    "drama_probe",
    "hammer_pattern_rows",
    "infer_subarray_rows",
    "run_pattern",
    "verify_inference",
]
