"""Tests for the guest OS layer: GVA->GPA->HPA, processes, and the §9
intra-VM trade-off."""

import pytest

from repro.core import SilozHypervisor, audit_hypervisor, classify_flips
from repro.ept import ExtendedPageTable
from repro.errors import EptError, EptViolation, HvError, OutOfMemoryError
from repro.guest import GuestOS
from repro.hv import Machine, VmSpec
from repro.units import KiB, MiB, PAGE_4K


@pytest.fixture
def hv():
    return SilozHypervisor.boot(Machine.small(seed=51))


@pytest.fixture
def vm(hv):
    return hv.create_vm(VmSpec(name="guest", memory_bytes=2 * MiB))


@pytest.fixture
def gos(vm):
    return GuestOS(vm)


class TestFrameAllocator:
    def test_frames_above_kernel_reserved(self, gos):
        frame = gos.alloc_frame()
        assert frame >= 64 * KiB
        assert frame % PAGE_4K == 0

    def test_frames_distinct(self, gos):
        frames = {gos.alloc_frame() for _ in range(16)}
        assert len(frames) == 16

    def test_free_and_reuse(self, gos):
        frame = gos.alloc_frame()
        gos.free_frame(frame)
        assert gos.alloc_frame() == frame

    def test_exhaustion(self, gos):
        with pytest.raises(OutOfMemoryError):
            for _ in range(10_000):
                gos.alloc_frame()

    def test_bad_free_rejected(self, gos):
        with pytest.raises(HvError):
            gos.free_frame(0)  # kernel-reserved
        with pytest.raises(HvError):
            gos.free_frame(123)  # unaligned


class TestGuestPageTable:
    def test_map_translate(self, gos, vm):
        pt = ExtendedPageTable(vm, gos.alloc_frame)
        frame = gos.alloc_frame()
        pt.map(0x400000, frame, PAGE_4K)
        assert pt.translate(0x400000) == frame
        assert pt.translate(0x400123) == frame + 0x123

    def test_unmapped_faults(self, gos, vm):
        pt = ExtendedPageTable(vm, gos.alloc_frame)
        with pytest.raises(EptViolation):
            pt.translate(0x400000)

    def test_double_map_rejected(self, gos, vm):
        pt = ExtendedPageTable(vm, gos.alloc_frame)
        frame = gos.alloc_frame()
        pt.map(0x400000, frame, PAGE_4K)
        with pytest.raises(EptError):
            pt.map(0x400000, frame, PAGE_4K)

    def test_unaligned_rejected(self, gos, vm):
        pt = ExtendedPageTable(vm, gos.alloc_frame)
        with pytest.raises(EptError):
            pt.map(0x400001, 0x10000, PAGE_4K)

    def test_tables_live_in_guest_ram(self, gos, vm):
        pt = ExtendedPageTable(vm, gos.alloc_frame)
        pt.map(0x400000, gos.alloc_frame(), PAGE_4K)
        for frame in pt.table_pages:
            # Each table frame is within the RAM region and EPT-mapped.
            assert vm.region_at(frame).name == "ram"
            vm.translate(frame)

    def test_full_translation_chain(self, gos, vm):
        """§2.1: GVA -> GPA -> HPA, each step through real tables."""
        pt = ExtendedPageTable(vm, gos.alloc_frame)
        frame = gos.alloc_frame()
        pt.map(0x400000, frame, PAGE_4K)
        hpa = vm.translate(pt.translate(0x400000))
        assert hpa == vm.translate(frame)
        assert vm.owns_hpa(hpa)


class TestProcesses:
    def test_spawn_and_rw(self, gos):
        p = gos.spawn("worker")
        p.write(0x400000, b"process data")
        assert p.read(0x400000, 12) == b"process data"

    def test_processes_have_disjoint_frames(self, gos):
        a = gos.spawn("a")
        b = gos.spawn("b")
        assert not set(a.frames) & set(b.frames)

    def test_same_gva_different_processes_different_data(self, gos):
        a = gos.spawn("a")
        b = gos.spawn("b")
        a.write(0x400000, b"AAAA")
        b.write(0x400000, b"BBBB")
        assert a.read(0x400000, 4) == b"AAAA"
        assert b.read(0x400000, 4) == b"BBBB"

    def test_duplicate_name_rejected(self, gos):
        gos.spawn("a")
        with pytest.raises(HvError):
            gos.spawn("a")

    def test_kill_releases_frames(self, gos):
        free_before = gos.free_bytes
        gos.spawn("a")
        gos.kill("a")
        assert gos.free_bytes == free_before
        with pytest.raises(HvError):
            gos.kill("a")

    def test_heap_pages_param(self, gos):
        p = gos.spawn("big", heap_pages=16)
        assert len(p.frames) == 16
        p.write(p.heap_top - PAGE_4K, b"top page")


class TestIntraVmTradeoff:
    """§9: Siloz is inter-VM protection; intra-VM co-location remains
    (and can even increase).  Demonstrated: a guest process's hammering
    flips bits in a sibling process, while the other VM stays clean."""

    def test_process_hammering_can_hit_sibling(self, hv, vm):
        gos = GuestOS(vm)
        victim_proc = gos.spawn("victim", heap_pages=32)
        attacker_proc = gos.spawn("attacker", heap_pages=32)
        other_vm = hv.create_vm(VmSpec(name="other", memory_bytes=2 * MiB))

        victim_proc.write(0x400000, b"\x77" * PAGE_4K)
        # Hammer every heap page the attacker owns, hard.
        flips = []
        for i in range(len(attacker_proc.frames)):
            flips.extend(
                attacker_proc.hammer(0x400000 + i * PAGE_4K, activations=1200)
            )
        assert flips, "intra-VM hammering should flip bits somewhere"

        geom = hv.machine.geom
        victim_rows = {
            hv.machine.mapping.decode(victim_proc.hpa_of(0x400000 + i * PAGE_4K)).row
            for i in range(len(victim_proc.frames))
        }
        flipped_rows = {f.row for f in hv.machine.dram.flips_log}
        # The flips stayed inside the VM's groups (inter-VM holds) —
        # except flips absorbed by offlined guard rows: the EPT walks
        # this test performs activate EPT rows heavily, and their
        # disturbance lands in guards by design (§5.4).
        verdict = classify_flips(hv, vm, hv.machine.dram.flips_log)
        from repro.dram.media import MediaAddress

        for f in verdict.escaped:
            media = MediaAddress.from_socket_bank(
                geom, f.socket, f.bank, f.row, (f.bit // 8 // 64) * 64
            )
            assert hv.offline.is_offline(hv.machine.mapping.encode(media))
        # ...and the sibling process's rows are within reach: either
        # already hit, or adjacent to hammered rows (co-located).
        assert flipped_rows & victim_rows or any(
            abs(fr - vr) <= 2 for fr in flipped_rows for vr in victim_rows
        )
        # The other VM is untouched.
        assert other_vm.name not in verdict.victim_flips
        assert audit_hypervisor(hv) == []
