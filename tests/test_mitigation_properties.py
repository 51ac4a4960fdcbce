"""Property tests on the :class:`repro.mitigations.Mitigation` contract.

Every registered mitigation — whatever hypervisor it boots — must hold
the same interface invariants: deterministic placement (same machine
seed, same arrival order ⇒ same domains), capacity accounting that is
never negative and is restored by eviction, and — unless the mitigation
*declares* shared-domain semantics — no two tenants ever sharing a
protection domain.  The sweeps run every mitigation so a new
registration is covered the day it lands.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import MitigationError, PlacementError
from repro.hv import Machine, VmSpec
from repro.mitigations import (
    ALL_AUDIT_KINDS,
    MITIGATIONS,
    Mitigation,
    MitigationCapacity,
    make_mitigation,
    mitigation_names,
)
from repro.units import KiB, MiB

NAMES = mitigation_names()


def _boot(name: str, seed: int = 0, backend: str = "scalar"):
    mitigation = make_mitigation(name)
    hv = mitigation.boot(Machine.small(seed=seed, backend=backend))
    mitigation.attach(hv, seed=seed)
    return mitigation, hv


def _sizes(rng: random.Random, count: int, step: int = 256 * KiB) -> list[int]:
    """Backing-aligned VM sizes (64 KiB pages on the small machine)."""
    return [step * rng.randint(1, 6) for _ in range(count)]


class TestRegistry:
    def test_expected_mitigations_registered(self):
        assert set(NAMES) >= {
            "none", "siloz", "para", "catt", "domain-buddy", "guard-rows",
        }

    def test_names_sorted_and_unique(self):
        assert list(NAMES) == sorted(set(NAMES))

    @pytest.mark.parametrize("name", NAMES)
    def test_make_returns_named_instance(self, name):
        m = make_mitigation(name)
        assert isinstance(m, Mitigation)
        assert m.name == name
        assert m.summary, f"{name} has no summary"
        assert set(m.enforced_audit_kinds) <= set(ALL_AUDIT_KINDS)

    def test_unknown_name_rejected(self):
        with pytest.raises(MitigationError, match="unknown mitigation"):
            make_mitigation("definitely-not-registered")

    def test_duplicate_registration_rejected(self):
        from repro.mitigations.base import register

        taken = next(iter(MITIGATIONS))

        with pytest.raises(MitigationError, match="already registered"):
            @register
            class Duplicate(Mitigation):
                name = taken

        assert MITIGATIONS[taken].name == taken  # registry unscathed

    @pytest.mark.parametrize(
        ("name", "knobs"),
        [
            ("para", {"probability": 0.0}),
            ("para", {"probability": 1.5}),
            ("para", {"distance": 0}),
            ("catt", {"partitions_per_socket": 0}),
            ("catt", {"guard_rows": 60}),
            ("guard-rows", {"guard_rows": 0}),
            ("guard-rows", {"stripe_rows": 1}),
        ],
    )
    def test_bad_knobs_rejected(self, name, knobs):
        with pytest.raises(MitigationError):
            mitigation = make_mitigation(name, **knobs)
            mitigation.boot(Machine.small(seed=0))


class TestCapacityDataclass:
    def test_negative_fields_rejected(self):
        with pytest.raises(MitigationError, match="negative"):
            MitigationCapacity(
                total_bytes=-1, guest_bytes=0, free_guest_bytes=0, reserved_bytes=0
            )
        with pytest.raises(MitigationError, match="negative"):
            MitigationCapacity(
                total_bytes=8, guest_bytes=4, free_guest_bytes=-2, reserved_bytes=0
            )

    def test_loss_fraction(self):
        cap = MitigationCapacity(
            total_bytes=32 * MiB,
            guest_bytes=24 * MiB,
            free_guest_bytes=24 * MiB,
            reserved_bytes=2 * MiB,
        )
        assert cap.loss_fraction == 2 / 32
        assert cap.to_dict()["loss_fraction"] == round(2 / 32, 6)

    def test_zero_total_is_total_loss(self):
        cap = MitigationCapacity(
            total_bytes=0, guest_bytes=0, free_guest_bytes=0, reserved_bytes=0
        )
        assert cap.loss_fraction == 0.0


class TestPlacementDeterminism:
    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("seed", range(10))
    def test_same_seed_same_domains(self, name, seed):
        rng = random.Random(f"placement:{name}:{seed}")
        sizes = _sizes(rng, 3)
        placements = []
        for _ in range(2):
            mitigation, hv = _boot(name, seed=seed)
            record = {}
            for i, size in enumerate(sizes):
                vm = hv.create_vm(VmSpec(name=f"vm{i}", memory_bytes=size))
                record[vm.name] = (
                    tuple(vm.node_ids),
                    tuple(sorted(mitigation.domains_of(hv, vm))),
                )
            placements.append(record)
        assert placements[0] == placements[1], (
            f"{name} placement not deterministic at seed {seed}"
        )


class TestCapacityAccounting:
    @pytest.mark.parametrize("name", NAMES)
    def test_capacity_never_negative_while_filling(self, name):
        mitigation, hv = _boot(name)
        i = 0
        while True:
            cap = mitigation.capacity(hv)
            assert cap.free_guest_bytes >= 0
            assert cap.guest_bytes <= cap.total_bytes
            assert 0.0 <= cap.loss_fraction <= 1.0
            try:
                hv.create_vm(VmSpec(name=f"fill{i}", memory_bytes=1 * MiB))
            except PlacementError:
                break
            i += 1
            assert i < 64, f"{name} never ran out of capacity"
        assert i >= 1, f"{name} placed no VMs at all"
        final = mitigation.capacity(hv)
        assert final.free_guest_bytes >= 0
        assert 0.0 <= final.loss_fraction <= 1.0

    @pytest.mark.parametrize("name", NAMES)
    def test_eviction_restores_free_bytes(self, name):
        mitigation, hv = _boot(name)
        before = mitigation.capacity(hv)
        hv.create_vm(VmSpec(name="a", memory_bytes=1 * MiB))
        hv.create_vm(VmSpec(name="b", memory_bytes=1 * MiB))
        mid = mitigation.capacity(hv)
        assert mid.free_guest_bytes < before.free_guest_bytes
        for name_ in ("a", "b"):
            hv.destroy_vm(name_)
            hv.release_reservation(name_)
        after = mitigation.capacity(hv)
        # Static accounting (total/guest/reserved) never moves; the free
        # pool returns to exactly its pre-placement level.
        assert after == before

    @pytest.mark.parametrize("name", NAMES)
    def test_capacity_loss_matches_identity(self, name):
        mitigation, hv = _boot(name)
        cap = mitigation.capacity(hv)
        geom = hv.machine.dram.geom
        assert cap.total_bytes == geom.total_bytes
        # Everything the mitigation reserves must come out of somewhere:
        # guest pool + host pool + reserved cover the module.
        assert cap.guest_bytes + cap.reserved_bytes <= cap.total_bytes


class TestDomainDisjointness:
    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("seed", range(30))
    def test_no_shared_domains_unless_declared(self, name, seed):
        mitigation, hv = _boot(name, seed=seed % 3)
        rng = random.Random(f"disjoint:{name}:{seed}")
        vms = []
        for i, size in enumerate(_sizes(rng, rng.randint(2, 4))):
            try:
                vms.append(hv.create_vm(VmSpec(name=f"vm{i}", memory_bytes=size)))
            except PlacementError:
                break
        assert vms, "placed no VMs"
        claims: dict = {}
        overlaps = []
        for vm in vms:
            for domain in mitigation.domains_of(hv, vm):
                if domain in claims and claims[domain] != vm.name:
                    overlaps.append((domain, claims[domain], vm.name))
                claims[domain] = vm.name
        if not hv.exclusive_nodes:
            # Shared-pool semantics must be *declared*, and the sweeps
            # must actually witness sharing somewhere (else the flag is
            # dead weight) — asserted aggregate in test_shared_flag below.
            return
        assert not overlaps, (
            f"{name} placed two tenants in one protection domain: {overlaps}"
        )
        mitigation.assert_isolation(_FakeHost(hv, mitigation))

    def test_shared_flag_is_honest(self):
        # At least one shared-domain mitigation must demonstrably share.
        booted = [_boot(name) for name in NAMES]
        shared = [(m, hv) for m, hv in booted if not hv.exclusive_nodes]
        assert shared, "no mitigation declares shared domains"
        witnessed = False
        for mitigation, hv in shared:
            vms = [
                hv.create_vm(VmSpec(name=f"vm{i}", memory_bytes=1 * MiB))
                for i in range(2)
            ]
            domains = [set(mitigation.domains_of(hv, vm)) for vm in vms]
            if domains[0] & domains[1]:
                witnessed = True
        assert witnessed, "shared pools declared but never witnessed"


class _FakeHost:
    """The slice of :class:`repro.fleet.host.Host` that audits need."""

    def __init__(self, hv, mitigation):
        self.hv = hv
        self.mitigation = mitigation


class TestAuditFiltering:
    @pytest.mark.parametrize("name", NAMES)
    def test_fresh_host_audits_clean(self, name):
        mitigation, hv = _boot(name)
        hv.create_vm(VmSpec(name="a", memory_bytes=1 * MiB))
        hv.create_vm(VmSpec(name="b", memory_bytes=1 * MiB))
        assert mitigation.audit(hv) == ()
        mitigation.assert_isolation(_FakeHost(hv, mitigation))

    def test_shared_pool_colocation_is_unenforced_not_invisible(self):
        from repro.core import audit_hypervisor

        mitigation, hv = _boot("none")
        for i in range(2):
            hv.create_vm(VmSpec(name=f"vm{i}", memory_bytes=1 * MiB))
        raw = audit_hypervisor(hv)
        assert any(v.kind == "co-location" for v in raw), (
            "expected the raw audit to flag shared-pool co-location"
        )
        assert "co-location" not in mitigation.enforced_audit_kinds
        assert mitigation.audit(hv) == ()

    @pytest.mark.parametrize("name", NAMES)
    def test_host_report_shape_and_determinism(self, name):
        reports = []
        for _ in range(2):
            mitigation, hv = _boot(name, seed=5)
            hv.create_vm(VmSpec(name="a", memory_bytes=1 * MiB))
            reports.append(mitigation.host_report(_FakeHost(hv, mitigation)))
        assert reports[0] == reports[1]
        report = reports[0]
        assert report["name"] == name
        assert set(report) >= {
            "name", "shared_domains", "capacity", "activations", "refresh_ops",
        }
        assert report["capacity"]["free_guest_bytes"] >= 0


class TestParaHook:
    def test_refresh_ops_counts_and_is_seeded(self):
        counts = []
        for _ in range(2):
            mitigation, hv = _boot("para", seed=11)
            hv.create_vm(VmSpec(name="a", memory_bytes=1 * MiB))
            hv.machine.dram.activate_batch(0, 0, [70] * 2000)
            counts.append(mitigation.refresh_ops(hv))
        assert counts[0] == counts[1], "PARA refreshes not seed-deterministic"
        assert counts[0] > 0, "PARA never refreshed under 2000 ACTs at p=0.002"

    def test_distance_two_reaches_further(self):
        from repro.mitigations import ParaRefreshHook

        refreshed = {}
        for distance in (1, 2):
            mitigation, hv = _boot("none")
            hook = ParaRefreshHook(probability=1.0, distance=distance, seed=0)
            hv.machine.dram.register_hook(hook)
            hv.machine.dram.activate_batch(0, 0, [100] * 10)
            refreshed[distance] = hook.refreshes
        assert refreshed[2] == 2 * refreshed[1]
