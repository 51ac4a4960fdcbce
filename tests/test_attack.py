"""Unit tests for the attack package (patterns, fuzzer, runner)."""

import random

import pytest

from repro.attack import (
    BlacksmithFuzzer,
    HammerPattern,
    attack_from_vm,
    hammer_pattern_rows,
    run_pattern,
)
from repro.attack.runner import _runs, rows_owned_by_vm
from repro.dram.disturbance import DisturbanceProfile
from repro.dram.geometry import DRAMGeometry
from repro.dram.module import SimulatedDram
from repro.dram.trr import TrrConfig
from repro.errors import AttackError
from repro.hv import BaselineHypervisor, Machine, VmSpec
from repro.core import SilozHypervisor
from repro.units import KiB, MiB

GEOM = DRAMGeometry.small()  # 64 rows, 8-row subarrays


def make_dram(threshold=48.0, trr=None, seed=0):
    return SimulatedDram(
        GEOM,
        profile=DisturbanceProfile.test_scale(threshold_mean=threshold),
        trr_config=trr,
        seed=seed,
    )


class TestPatterns:
    def test_with_decoys_disjoint(self):
        p = HammerPattern(aggressors=(0, 2, 4), decoys=(16, 18))
        assert not set(p.aggressors) & set(p.decoys)
        # Decoys come first in the default order (sampler slots).
        assert p.order[: len(p.decoys)] == p.decoys

    def test_rejects_empty(self):
        with pytest.raises(AttackError):
            HammerPattern(aggressors=())

    def test_rejects_overlapping_decoys(self):
        with pytest.raises(AttackError):
            HammerPattern(aggressors=(1,), decoys=(1,))

    def test_rejects_unknown_order(self):
        with pytest.raises(AttackError):
            HammerPattern(aggressors=(1,), order=(1, 99))

    def test_rejects_bad_rounds(self):
        with pytest.raises(AttackError):
            HammerPattern(aggressors=(1,), rounds=0)

    def test_random_patterns_valid(self):
        rng = random.Random(0)
        for _ in range(50):
            p = HammerPattern.random(rng)
            assert p.aggressors
            assert p.total_activations() > 0


class TestHammerPrimitives:
    def test_pattern_rows_validated(self):
        dram = make_dram()
        with pytest.raises(Exception):
            hammer_pattern_rows(dram, 0, 0, [9999], rounds=1)
        with pytest.raises(AttackError):
            hammer_pattern_rows(dram, 0, 0, [], rounds=1)

    def test_run_pattern_clamps_to_bank(self):
        dram = make_dram()
        pattern = HammerPattern(aggressors=(-1, 1))
        flips = run_pattern(dram, 0, 0, 0, pattern)  # -1 clamped away
        assert all(0 <= f.row < GEOM.rows_per_bank for f in flips)

    def test_run_pattern_rejects_fully_out_of_bank(self):
        dram = make_dram()
        pattern = HammerPattern(aggressors=(500,), rounds=1)
        with pytest.raises(AttackError):
            run_pattern(dram, 0, 0, 0, pattern)

    def test_flips_confined_to_subarray(self):
        dram = make_dram()
        pattern = HammerPattern(aggressors=(0, 2, 4), rounds=3000)
        flips = run_pattern(dram, 0, 0, 2, pattern)  # aggressors 2,4,6
        assert flips
        assert all(f.row < 8 for f in flips)


class TestBlacksmithFuzzer:
    def test_finds_flips_without_trr(self):
        dram = make_dram()
        fuzzer = BlacksmithFuzzer(dram, [(0, 0, range(0, 32))], seed=1)
        report = fuzzer.run(pattern_budget=20)
        assert report.flip_count > 0
        assert report.effective_patterns

    def test_beats_trr(self):
        """The §7.1 premise: Blacksmith flips bits despite TRR."""
        dram = make_dram(trr=TrrConfig(), seed=2)
        fuzzer = BlacksmithFuzzer(dram, [(0, 0, range(0, 32))], seed=2)
        report = fuzzer.run(pattern_budget=120)
        assert report.flip_count > 0

    def test_flips_stay_in_target_subarrays(self):
        dram = make_dram()
        fuzzer = BlacksmithFuzzer(dram, [(0, 0, range(8, 16))], seed=3)
        report = fuzzer.run(pattern_budget=30)
        if report.flips:  # row range = subarray 1 exactly
            assert all(8 <= f.row < 16 for f in report.flips)

    def test_requires_targets(self):
        with pytest.raises(AttackError):
            BlacksmithFuzzer(make_dram(), [])

    def test_report_accounting(self):
        dram = make_dram()
        fuzzer = BlacksmithFuzzer(dram, [(0, 0, range(0, 32))], seed=4)
        report = fuzzer.run(pattern_budget=5)
        assert report.patterns_tried == 5
        assert report.activations > 0

    def test_small_target_ranges_skipped(self):
        dram = make_dram()
        fuzzer = BlacksmithFuzzer(dram, [(0, 0, range(0, 2))], seed=5)
        report = fuzzer.run(pattern_budget=5)  # most patterns won't fit
        assert report.patterns_tried == 5


class TestRunnerHelpers:
    def test_runs_splits_gaps(self):
        assert _runs([1, 2, 3, 7, 8]) == [range(1, 4), range(7, 9)]
        assert _runs([]) == []
        assert _runs([5]) == [range(5, 6)]

    def test_rows_owned_by_vm(self):
        hv = SilozHypervisor.boot(Machine.small())
        vm = hv.create_vm(VmSpec(name="a", memory_bytes=2 * MiB))
        owned = rows_owned_by_vm(hv, vm)
        geom = hv.machine.geom
        groups = {
            geom.subarray_of_row(r) for r in owned[0]
        }
        assert groups <= {g for _, g in vm.reserved_groups}


class TestAttackFromVm:
    def test_siloz_attack_contained(self):
        hv = SilozHypervisor.boot(Machine.small(seed=7))
        attacker = hv.create_vm(VmSpec(name="attacker", memory_bytes=2 * MiB))
        hv.create_vm(VmSpec(name="victim", memory_bytes=2 * MiB))
        outcome = attack_from_vm(hv, attacker, seed=7, pattern_budget=25)
        assert outcome.report.flip_count > 0  # the attack works...
        assert outcome.contained  # ...but never escapes (Table 3)
        assert outcome.victim_flips == {}

    def test_baseline_attack_corrupts_victim(self):
        """Flips always stay in the attacker's *physical* subarray — but
        the baseline shares subarrays between VMs, so the victim's data
        is corrupted anyway.  Siloz's fix is making the groups private,
        not changing the physics."""
        hv = BaselineHypervisor(Machine.small(seed=8), backing_page_bytes=64 * KiB)
        attacker = hv.create_vm(VmSpec(name="attacker", memory_bytes=2 * MiB))
        hv.create_vm(VmSpec(name="victim", memory_bytes=2 * MiB))
        outcome = attack_from_vm(hv, attacker, seed=8, pattern_budget=80)
        assert outcome.report.flip_count > 0
        assert outcome.victim_flips  # inter-VM corruption happened

    def test_summary_format(self):
        hv = SilozHypervisor.boot(Machine.small(seed=9))
        attacker = hv.create_vm(VmSpec(name="a", memory_bytes=2 * MiB))
        outcome = attack_from_vm(hv, attacker, seed=9, pattern_budget=5)
        assert "attacker=a" in outcome.summary()
