"""Tests for the deterministic fault-injection harness (plans, the
injector hook, and DRAM-module fault entry points)."""

import pytest

from repro.dram.ecc import EccOutcome, WORD_BITS
from repro.dram.geometry import DRAMGeometry
from repro.dram.module import DramHook, SimulatedDram
from repro.errors import DramError
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
)


def make_dram(seed=0):
    return SimulatedDram(DRAMGeometry.small(), seed=seed)


def media_of(dram, hpa=0):
    media = dram.mapping.decode(hpa)
    return media.socket, media.socket_bank_index(dram.geom), media.row


class TestFaultSpecValidation:
    def test_stuck_at_needs_bit(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(kind=FaultKind.STUCK_AT, socket=0, bank=0, row=1)

    def test_stuck_value_binary(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(kind=FaultKind.STUCK_AT, socket=0, bank=0, row=1, bit=0, stuck_value=2)

    def test_retention_needs_positive_period(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(kind=FaultKind.RETENTION_WEAK, socket=0, bank=0, row=1, bit=0)

    def test_late_repair_needs_spare(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(kind=FaultKind.LATE_REPAIR, socket=0, bank=0, row=1)

    def test_ecc_word_needs_bits(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(kind=FaultKind.ECC_WORD, socket=0, bank=0, row=1, word=0)

    def test_ecc_word_bits_bounded(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(
                kind=FaultKind.ECC_WORD, socket=0, bank=0, row=1, word=0,
                word_bits=(WORD_BITS,),
            )

    def test_negative_clock_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(kind=FaultKind.LATE_REPAIR, socket=0, bank=0, row=1,
                      spare_row=2, at_clock=-1.0)

    def test_row_bits_absolute(self):
        spec = FaultSpec(
            kind=FaultKind.ECC_WORD, socket=0, bank=0, row=1, word=3,
            word_bits=(0, 5),
        )
        assert spec.row_bits == (3 * WORD_BITS, 3 * WORD_BITS + 5)


class TestFaultPlan:
    def test_specs_kept_time_ordered(self):
        late = FaultSpec(kind=FaultKind.LATE_REPAIR, socket=0, bank=0, row=1,
                         spare_row=2, at_clock=5.0)
        early = FaultSpec(kind=FaultKind.LATE_REPAIR, socket=0, bank=0, row=3,
                          spare_row=4, at_clock=1.0)
        plan = FaultPlan([late, early])
        assert [s.at_clock for s in plan.specs] == [1.0, 5.0]

    def test_ce_storm_distinct_words(self):
        plan = FaultPlan.ce_storm(0, 0, 7, errors=10, words_per_row=64, seed=1)
        words = [s.word for s in plan.specs]
        assert len(set(words)) == len(words)
        assert all(len(s.word_bits) == 1 for s in plan.specs)

    def test_ce_storm_same_seed_same_plan(self):
        a = FaultPlan.ce_storm(0, 0, 7, errors=8, words_per_row=64, seed=9)
        b = FaultPlan.ce_storm(0, 0, 7, errors=8, words_per_row=64, seed=9)
        assert a.specs == b.specs

    def test_ce_storm_too_many_errors(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.ce_storm(0, 0, 7, errors=65, words_per_row=64)

    def test_ce_storm_bad_interval(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.ce_storm(0, 0, 7, errors=2, words_per_row=64, interval=0)


class TestDramFaultEntryPoints:
    def test_inject_and_bit_at(self):
        dram = make_dram()
        dram.inject_bit_error(0, 0, 5, 17)
        assert dram.bit_at(0, 0, 5, 17) == 1
        assert 17 in dram.flip_bits_at(0, 0, 5)

    def test_inject_validates_bit(self):
        dram = make_dram()
        with pytest.raises(DramError):
            dram.inject_bit_error(0, 0, 5, dram.geom.row_bytes * 8)

    def test_duplicate_hook_rejected(self):
        dram = make_dram()
        hook = DramHook()
        dram.register_hook(hook)
        with pytest.raises(DramError):
            dram.register_hook(hook)
        dram.unregister_hook(hook)
        dram.unregister_hook(hook)  # second removal is a no-op


class TestInjector:
    def test_stuck_at_enforced_across_writes(self):
        dram = make_dram()
        socket, bank, row = media_of(dram, 0)
        plan = FaultPlan([
            FaultSpec(kind=FaultKind.STUCK_AT, socket=socket, bank=bank,
                      row=row, bit=3, stuck_value=1)
        ])
        FaultInjector(dram, plan).attach()
        assert dram.bit_at(socket, bank, row, 3) == 1  # armed at t=0
        dram.write(0, bytes(8))  # guest writes healthy zeros
        assert dram.bit_at(socket, bank, row, 3) == 1  # write didn't stick

    def test_stuck_at_zero(self):
        dram = make_dram()
        socket, bank, row = media_of(dram, 0)
        plan = FaultPlan([
            FaultSpec(kind=FaultKind.STUCK_AT, socket=socket, bank=bank,
                      row=row, bit=0, stuck_value=0)
        ])
        FaultInjector(dram, plan).attach()
        dram.write(0, b"\xff")
        assert dram.bit_at(socket, bank, row, 0) == 0

    def test_retention_weak_recurs_after_scrub(self):
        dram = make_dram()
        plan = FaultPlan([
            FaultSpec(kind=FaultKind.RETENTION_WEAK, socket=0, bank=0,
                      row=9, bit=6, retention_s=0.01)
        ])
        FaultInjector(dram, plan).attach()
        assert not dram.flip_bits_at(0, 0, 9)  # armed but not yet decayed
        dram.advance_time(0.011)
        assert 6 in dram.flip_bits_at(0, 0, 9)
        dram.patrol_scrub()  # heals the leak...
        assert not dram.flip_bits_at(0, 0, 9)
        dram.advance_time(0.01)  # ...and the cell leaks it back
        assert 6 in dram.flip_bits_at(0, 0, 9)

    def test_late_repair_appears_at_trigger(self):
        dram = make_dram()
        plan = FaultPlan([
            FaultSpec(kind=FaultKind.LATE_REPAIR, socket=0, bank=0, row=9,
                      spare_row=60, at_clock=0.005)
        ])
        FaultInjector(dram, plan).attach()
        assert dram._to_internal(0, 0, 9) == 9
        dram.advance_time(0.006)
        assert dram._to_internal(0, 0, 9) == 60

    def test_ecc_word_correctable_on_scrub(self):
        dram = make_dram()
        plan = FaultPlan.ce_storm(0, 0, 9, errors=3, words_per_row=64,
                                  start=0.0, interval=0.001)
        FaultInjector(dram, plan).attach()
        dram.advance_time(0.01)
        events = dram.patrol_scrub()
        assert len(events) == 3
        assert all(e.outcome is EccOutcome.CORRECTED for e in events)

    def test_detach_stops_firing(self):
        dram = make_dram()
        plan = FaultPlan([
            FaultSpec(kind=FaultKind.ECC_WORD, socket=0, bank=0, row=9,
                      word=0, word_bits=(1,), at_clock=0.5)
        ])
        injector = FaultInjector(dram, plan).attach()
        injector.detach()
        dram.advance_time(1.0)
        assert not dram.flip_bits_at(0, 0, 9)

    def test_replay_determinism(self):
        def run(seed):
            dram = SimulatedDram(DRAMGeometry.small(), seed=seed)
            plan = FaultPlan.ce_storm(0, 0, 9, errors=10, words_per_row=64,
                                      interval=0.002, seed=seed)
            injector = FaultInjector(dram, plan).attach()
            for _ in range(12):
                dram.advance_time(0.002)
                dram.patrol_scrub()
            return (
                [str(e) for e in injector.events],
                dram.ecc.stats.corrected,
                sorted(dram._flips.items()),
            )

        assert run(5) == run(5)
        # Different seed picks different words/bits: the logs must differ.
        assert run(5)[0] != run(6)[0]
