"""Bake-off harness + attacker-vs-mitigation matrix tests.

Two layers:

1. **Matrix** — each mitigation's *documented* containment holes must
   reproduce, and its documented strengths must hold, under seeded
   fuzzing (`attack_from_vm`) and deterministic targeted hammering
   (``activate_batch`` on tenant-boundary rows).  A hole that stops
   reproducing means the model drifted; a strength that fails means the
   mitigation broke.
2. **Harness** — :mod:`repro.mitigations.bakeoff` must produce
   worker-count- and backend-independent reports, a comparison table,
   correct CLI exit codes, and trace events that fold into metrics.
"""

from __future__ import annotations

import pytest

from repro.attack import attack_from_vm
from repro.attack.runner import rows_owned_by_vm
from repro.errors import MitigationError
from repro.hv import Machine, VmSpec
from repro.mitigations import make_mitigation
from repro.mitigations.bakeoff import BakeoffConfig, BakeoffReport, run_bakeoff
from repro.units import KiB, MiB

#: Pattern budget at which the unmitigated shared pool reliably leaks
#: (cumulative edge pressure; see BakeoffConfig's default).
BUDGET = 150
SEEDS = range(6)


def _boot(name: str, seed: int = 0, backend: str = "vectorized", **knobs):
    mitigation = make_mitigation(name, **knobs)
    hv = mitigation.boot(Machine.small(seed=seed, backend=backend))
    mitigation.attach(hv, seed=seed)
    return mitigation, hv


def _two_tenants(hv, size=1 * MiB, size_b=None):
    a = hv.create_vm(VmSpec(name="attacker", memory_bytes=size))
    b = hv.create_vm(VmSpec(name="victim", memory_bytes=size_b or size))
    return a, b


def _victim_flips(hv, victim) -> list:
    owned = rows_owned_by_vm(hv, victim)
    return [
        f
        for f in hv.machine.dram.flips_log
        if f.row in set(owned.get(f.socket, ()))
    ]


def _fuzz_victim_totals(name: str, seeds=SEEDS, budget=BUDGET, **knobs):
    """(victim flip total, escape total, per-seed victim counts)."""
    per_seed = []
    escapes = 0
    for seed in seeds:
        mitigation, hv = _boot(name, seed=seed, **knobs)
        attacker, victim = _two_tenants(hv)
        outcome = attack_from_vm(hv, attacker, seed=seed, pattern_budget=budget)
        per_seed.append(len(outcome.victim_flips))
        escapes += len(outcome.flips_escaped)
    return sum(per_seed), escapes, per_seed


class TestMatrixSharedPool:
    """`none`: adjacent tenants, no defence — the containment floor."""

    def test_fuzzer_leaks_across_tenants(self):
        total, _, per_seed = _fuzz_victim_totals("none")
        assert total > 0, (
            f"unmitigated baseline never corrupted the victim across seeds "
            f"{list(SEEDS)} at budget {BUDGET}: {per_seed}; the matrix lost "
            "its positive control"
        )

    def test_targeted_edge_hammer_corrupts_neighbour(self):
        _, hv = _boot("none")
        attacker, victim = _two_tenants(hv)
        a_rows = rows_owned_by_vm(hv, attacker)[0]
        v_rows = rows_owned_by_vm(hv, victim)[0]
        edge = max(a_rows)
        assert min(v_rows) == edge + 1, (
            "shared pool no longer places tenants row-adjacent; "
            f"attacker ends at {edge}, victim starts at {min(v_rows)}"
        )
        hv.machine.dram.activate_batch(0, 0, [edge] * 4000)
        assert _victim_flips(hv, victim), (
            "hammering the boundary row never corrupted the neighbour"
        )


class TestMatrixSiloz:
    """`siloz`: full subarray-group isolation — the containment ceiling."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fuzzer_fully_contained(self, seed):
        mitigation, hv = _boot("siloz", seed=seed)
        attacker, victim = _two_tenants(hv)
        outcome = attack_from_vm(hv, attacker, seed=seed, pattern_budget=BUDGET)
        assert outcome.contained, f"siloz escape at seed {seed}"
        assert not outcome.victim_flips, f"siloz victim flips at seed {seed}"

    def test_tenants_never_row_adjacent(self):
        _, hv = _boot("siloz")
        attacker, victim = _two_tenants(hv)
        a_rows = rows_owned_by_vm(hv, attacker)[0]
        v_rows = rows_owned_by_vm(hv, victim)[0]
        gap = min(v_rows) - max(a_rows)
        assert gap > 2, f"tenant gap {gap} rows is within blast radius"


class TestMatrixPara:
    """`para`: probabilistic refresh — reduces, never guarantees."""

    def test_reduces_but_does_not_eliminate_leaks(self):
        none_total, _, none_seeds = _fuzz_victim_totals("none")
        para_total, _, para_seeds = _fuzz_victim_totals("para")
        assert para_total < none_total, (
            f"PARA ({para_seeds}) did not reduce victim flips vs the "
            f"baseline ({none_seeds})"
        )

    def test_refresh_stream_is_seed_deterministic(self):
        runs = []
        for _ in range(2):
            mitigation, hv = _boot("para", seed=4)
            attacker, _ = _two_tenants(hv)
            outcome = attack_from_vm(hv, attacker, seed=4, pattern_budget=20)
            runs.append(
                (mitigation.refresh_ops(hv), len(hv.machine.dram.flips_log),
                 outcome.summary())
            )
        assert runs[0] == runs[1]
        assert runs[0][0] > 0, "PARA never fired during the campaign"

    def test_high_probability_para_contains_targeted_hammer(self):
        # p=1.0 refreshes both neighbours on every ACT: the classic
        # one-sided hammer can no longer accumulate pressure.
        _, hv = _boot("para", probability=1.0)
        attacker, victim = _two_tenants(hv)
        edge = max(rows_owned_by_vm(hv, attacker)[0])
        hv.machine.dram.activate_batch(0, 0, [edge] * 4000)
        assert not _victim_flips(hv, victim)


class TestMatrixCatt:
    """`catt`: row-aligned partitions — a thin guard is jumpable."""

    def _edge_setup(self, guard_rows: int):
        mitigation, hv = _boot("catt", guard_rows=guard_rows)
        stride = 448 // 8  # partition rows on the small machine
        usable = stride - guard_rows
        attacker = hv.create_vm(
            VmSpec(name="attacker", memory_bytes=usable * 64 * KiB)
        )
        victim = hv.create_vm(VmSpec(name="victim", memory_bytes=1 * MiB))
        return hv, attacker, victim

    def test_single_guard_row_is_jumped_by_distance_two(self):
        hv, attacker, victim = self._edge_setup(guard_rows=1)
        a_rows = rows_owned_by_vm(hv, attacker)[0]
        v_rows = rows_owned_by_vm(hv, victim)[0]
        edge = max(a_rows)
        assert min(v_rows) == edge + 2, (
            f"expected exactly one guard row between partitions; "
            f"attacker ends {edge}, victim starts {min(v_rows)}"
        )
        # Distance-2 coupling is 0.2x: ~7500 ACTs clear the 1500
        # threshold across a single guard row.
        hv.machine.dram.activate_batch(0, 0, [edge] * 9000)
        assert _victim_flips(hv, victim), (
            "CATT's documented single-guard-row hole stopped reproducing"
        )

    def test_two_guard_rows_absorb_the_blast_radius(self):
        hv, attacker, victim = self._edge_setup(guard_rows=2)
        edge = max(rows_owned_by_vm(hv, attacker)[0])
        hv.machine.dram.activate_batch(0, 0, [edge] * 9000)
        assert not _victim_flips(hv, victim), (
            "two guard rows should exceed the distance-2 blast radius"
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_default_partitions_contain_the_fuzzer(self, seed):
        mitigation, hv = _boot("catt", seed=seed)
        attacker, victim = _two_tenants(hv)
        outcome = attack_from_vm(hv, attacker, seed=seed, pattern_budget=BUDGET)
        assert not outcome.victim_flips, f"catt victim flips at seed {seed}"


class TestMatrixGuardRows:
    """`guard-rows`: stripes cap blast reach but tenants share stripes."""

    def test_same_stripe_neighbours_still_corruptible(self):
        _, hv = _boot("guard-rows")
        attacker, victim = _two_tenants(hv)
        a_rows = set(rows_owned_by_vm(hv, attacker)[0])
        v_rows = set(rows_owned_by_vm(hv, victim)[0])
        # Stripes bound blast *reach* but do nothing about placement:
        # the two tenants must still own directly adjacent rows somewhere.
        adjacent = sorted(r for r in a_rows if r + 1 in v_rows or r - 1 in v_rows)
        assert adjacent, (
            "guard-rows placement unexpectedly separated the tenants; "
            f"attacker {sorted(a_rows)}, victim {sorted(v_rows)}"
        )
        hv.machine.dram.activate_batch(0, 0, [adjacent[0]] * 4000)
        assert _victim_flips(hv, victim), (
            "guard stripes' documented same-stripe hole stopped reproducing"
        )

    def test_guard_rows_are_not_allocatable(self):
        mitigation, hv = _boot("guard-rows")
        vms = []
        i = 0
        while True:
            try:
                vms.append(
                    hv.create_vm(VmSpec(name=f"vm{i}", memory_bytes=1 * MiB))
                )
            except Exception:
                break
            i += 1
        geom = hv.machine.geom
        stripe, guard = 32, 1
        guarded = {
            row
            for row in range(geom.rows_per_subarray, geom.rows_per_bank)
            if (row - geom.rows_per_subarray) % stripe >= stripe - guard
        }
        for vm in vms:
            owned = rows_owned_by_vm(hv, vm)
            for rows in owned.values():
                assert not guarded & set(rows), (
                    f"{vm.name} was backed on offlined guard rows"
                )

    def test_capacity_loss_matches_stripe_arithmetic(self):
        mitigation, hv = _boot("guard-rows")
        cap = mitigation.capacity(hv)
        # 448 guest rows, 1 guard per 32-row stripe: 14 rows of 64 KiB.
        assert cap.reserved_bytes == 14 * 64 * KiB
        assert cap.loss_fraction == pytest.approx(14 * 64 * KiB / (32 * MiB))


class TestMatrixDomainBuddy:
    """`domain-buddy`: only as good as its domain-size presumption."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_correct_calibration_contains(self, seed):
        mitigation, hv = _boot("domain-buddy", seed=seed)
        attacker, victim = _two_tenants(hv)
        outcome = attack_from_vm(hv, attacker, seed=seed, pattern_budget=BUDGET)
        assert outcome.contained and not outcome.victim_flips, (
            f"calibrated domain-buddy leaked at seed {seed}"
        )

    def test_miscalibrated_domains_leak_group_escapes(self):
        # Presuming 32-row subarrays on 64-row hardware places tenant
        # boundaries mid-subarray: a tenant filling its whole presumed
        # domain hammers straight across the edge, so escapes out of the
        # presumed domain must reproduce across the sweep.
        escaped = 0
        for seed in range(10):
            mitigation, hv = _boot(
                "domain-buddy", seed=seed, rows_per_subarray=32
            )
            attacker, victim = _two_tenants(hv, size=2 * MiB)
            outcome = attack_from_vm(
                hv, attacker, seed=seed, pattern_budget=40
            )
            escaped += len(outcome.flips_escaped)
        assert escaped > 0, (
            "the documented miscalibration hole stopped reproducing"
        )

    def test_zero_capacity_loss(self):
        mitigation, hv = _boot("domain-buddy")
        assert mitigation.capacity(hv).loss_fraction == 0.0


class TestBakeoffHarness:
    SMALL = dict(
        mitigations=("none", "siloz"), hosts=2, vms=4, seed=3, budget=4
    )

    def test_digest_worker_count_independent(self):
        one = run_bakeoff(BakeoffConfig(**self.SMALL, workers=1))
        two = run_bakeoff(BakeoffConfig(**self.SMALL, workers=2))
        assert one.digest() == two.digest()

    def test_digest_backend_independent(self):
        scalar = run_bakeoff(BakeoffConfig(**self.SMALL, backend="scalar"))
        vector = run_bakeoff(BakeoffConfig(**self.SMALL, backend="vectorized"))
        assert scalar.digest() == vector.digest()
        for name in self.SMALL["mitigations"]:
            assert scalar.mitigation_digest(name) == vector.mitigation_digest(
                name
            )

    def test_entries_and_table(self):
        report = run_bakeoff(BakeoffConfig(**self.SMALL))
        assert [e["mitigation"] for e in report.entries] == ["none", "siloz"]
        assert report.clean
        siloz = report.entry("siloz")
        assert siloz["capacity"]["loss_fraction"] == pytest.approx(0.0625)
        assert not siloz["shared_domains"]
        assert report.entry("none")["shared_domains"]
        table = report.render_table()
        assert "siloz" in table and "none" in table
        assert "loss %" in table
        with pytest.raises(MitigationError):
            report.entry("para")

    def test_headline_result_reproduces_in_fleet(self):
        # Seed 7 at the full budget: the baseline corrupts a victim VM,
        # Siloz contains — the bench and README table's headline row.
        report = run_bakeoff(
            BakeoffConfig(
                mitigations=("none", "siloz"),
                hosts=2,
                vms=4,
                seed=7,
                budget=BUDGET,
                backend="vectorized",
            )
        )
        none_c = report.entry("none")["containment"]
        siloz_c = report.entry("siloz")["containment"]
        assert none_c["victim_flips"] > 0
        assert none_c["containment_rate"] < 1.0
        assert siloz_c["victim_flips"] == 0
        assert siloz_c["containment_rate"] == 1.0

    def test_resolved_mitigations_validation(self):
        with pytest.raises(MitigationError, match="unknown"):
            BakeoffConfig(mitigations=("nope",)).resolved_mitigations()
        with pytest.raises(MitigationError, match="duplicate"):
            BakeoffConfig(mitigations=("siloz", "siloz")).resolved_mitigations()
        assert BakeoffConfig().resolved_mitigations() == tuple(
            sorted(BakeoffConfig().resolved_mitigations())
        )

    def test_report_roundtrip_shape(self):
        report = run_bakeoff(BakeoffConfig(**self.SMALL))
        doc = report.to_json()
        assert doc["config"]["mitigations"] == ["none", "siloz"]
        rebuilt = BakeoffReport(config=doc["config"], entries=doc["entries"])
        assert rebuilt.digest() == report.digest()


class TestBakeoffObservability:
    def test_events_fold_into_metrics(self):
        from repro import obs

        obs.enable(reset=True)
        try:
            run_bakeoff(
                BakeoffConfig(
                    mitigations=("none", "siloz"), hosts=2, vms=4, budget=2
                )
            )
            snap = obs.metrics_snapshot()
            events = [
                e for e in obs.tracer().events() if e.kind == "bakeoff"
            ]
        finally:
            obs.disable(reset=True)
        assert snap["counters"]["bakeoff.campaigns"] == 2
        assert snap["gauges"]["bakeoff.siloz.loss_fraction"] == 0.0625
        assert "bakeoff.none.containment_rate" in snap["gauges"]
        assert [e.mitigation for e in events] == ["none", "siloz"]

    def test_bakeoff_event_roundtrips_jsonl(self):
        from repro.obs.events import BakeoffEvent, event_from_payload

        event = BakeoffEvent(
            mitigation="siloz", containment_rate=1.0, victim_flips=0
        )
        rebuilt = event_from_payload("bakeoff", event.to_payload())
        assert rebuilt == event


class TestBakeoffCli:
    def test_cli_runs_and_prints_digest(self, capsys):
        from repro.cli import main

        code = main(
            [
                "--seed", "3", "bakeoff", "--mitigations", "none,siloz",
                "--hosts", "2", "--vms", "4", "--budget", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "bakeoff digest: " in out
        assert "siloz" in out

    def test_cli_rejects_unknown_mitigation(self, capsys):
        from repro.cli import main

        code = main(["bakeoff", "--mitigations", "nope"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown mitigation" in err

    def test_fleet_accepts_mitigation_flag(self, capsys):
        from repro.cli import main

        code = main(
            [
                "fleet", "--mitigation", "none", "--hosts", "2", "--vms", "4",
                "--budget", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "merge digest" in out

    def test_fleet_rejects_unknown_mitigation(self, capsys):
        from repro.cli import main

        code = main(["fleet", "--mitigation", "nope", "--hosts", "2"])
        assert code == 2
        assert "mitigation" in capsys.readouterr().err
