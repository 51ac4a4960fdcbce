"""Table 3 (paper §7.1): hammering containment across DIMMs A-F.

An extended-Blacksmith campaign runs from inside a Siloz guest on six
simulated DIMM susceptibility profiles.  The reproduced table reports,
per DIMM, whether bit flips were observed inside the attacker's subarray
group (expected: yes — the attack itself works) and outside it
(expected: NO, on every DIMM).  A baseline row shows the contrast: the
same campaign corrupts a co-located victim VM.
"""

from conftest import banner

from repro import obs
from repro.attack import attack_from_vm
from repro.core import SilozHypervisor, audit_hypervisor
from repro.dram.disturbance import DisturbanceProfile
from repro.eval.report import render_table
from repro.hv import BaselineHypervisor, Machine, VmSpec
from repro.units import KiB, MiB


def _siloz_campaign(dimm: DisturbanceProfile, seed: int):
    # Vectorized engine: identical results to scalar (tests/test_differential.py),
    # measured >=9x faster in BENCH_engine.json.
    hv = SilozHypervisor.boot(Machine.small(seed=seed, profile=dimm, backend="vectorized"))
    attacker = hv.create_vm(VmSpec(name="attacker", memory_bytes=2 * MiB))
    hv.create_vm(VmSpec(name="victim", memory_bytes=2 * MiB))
    outcome = attack_from_vm(hv, attacker, seed=seed, pattern_budget=35)
    assert audit_hypervisor(hv) == []
    return outcome


def _run_fleet():
    rows = []
    outcomes = []
    for i, dimm in enumerate(DisturbanceProfile.dimm_fleet()):
        outcome = _siloz_campaign(dimm, seed=100 + i)
        outcomes.append((dimm.name, outcome))
        rows.append(
            [
                dimm.name,
                "yes" if outcome.flips_inside else "no",
                "NO" if not outcome.flips_escaped else "YES(!)",
                outcome.report.flip_count,
                outcome.report.activations,
            ]
        )
    return rows, outcomes


def test_table3_siloz_containment(benchmark):
    obs.enable(reset=True)
    try:
        rows, outcomes = benchmark.pedantic(_run_fleet, rounds=1, iterations=1)
        snapshot = obs.metrics_snapshot()
    finally:
        obs.disable()
    print(banner("Table 3: Siloz contains bit flips to the hammering domain"))
    print(
        render_table(
            [
                "DIMM",
                "flips inside subarray group",
                "flips outside subarray group",
                "total flips",
                "activations",
            ],
            rows,
            metrics=snapshot,
        )
    )
    for name, outcome in outcomes:
        assert outcome.report.flip_count > 0, f"DIMM {name}: fuzzer found no flips"
        assert outcome.contained, f"DIMM {name}: containment violated"
        assert outcome.victim_flips == {}, f"DIMM {name}: victim corrupted"


def _baseline_contrast():
    hv = BaselineHypervisor(
        Machine.small(seed=200, backend="vectorized"), backing_page_bytes=64 * KiB
    )
    attacker = hv.create_vm(VmSpec(name="attacker", memory_bytes=2 * MiB))
    hv.create_vm(VmSpec(name="victim", memory_bytes=2 * MiB))
    return attack_from_vm(hv, attacker, seed=200, pattern_budget=80)


def test_table3_baseline_contrast(benchmark):
    outcome = benchmark.pedantic(_baseline_contrast, rounds=1, iterations=1)
    print(banner("Baseline contrast: same campaign on unmodified Linux/KVM"))
    print(outcome.summary())
    assert outcome.report.flip_count > 0
    assert outcome.victim_flips, "baseline should corrupt the co-located victim"
