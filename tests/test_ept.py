"""Unit tests for the EPT subsystem (entries, walks, integrity)."""

import pytest

from repro.dram.geometry import DRAMGeometry
from repro.dram.module import SimulatedDram
from repro.ept import EptEntry, ExtendedPageTable, SecureEptChecker, ept_page_count
from repro.errors import (
    EptError,
    EptIntegrityError,
    EptViolation,
    UncorrectableError,
)
from repro.units import GiB, PAGE_2M, PAGE_4K

# A geometry big enough for 2 MiB mappings: 32 MiB per socket.
GEOM = DRAMGeometry.small(rows_per_bank=512, rows_per_subarray=64)


@pytest.fixture
def dram():
    return SimulatedDram(GEOM, trr_config=None)


@pytest.fixture
def ept(dram):
    return make_ept(dram)


def make_ept(dram, base=0, **kwargs):
    """EPT whose table pages come from a bump allocator at *base*."""
    next_page = iter(range(base, base + 4 * 2**20, PAGE_4K))

    def alloc():
        return next(next_page)

    return ExtendedPageTable(dram, alloc, **kwargs)


class TestEptEntry:
    def test_pack_unpack_roundtrip(self):
        entry = EptEntry.make(0x1234000, large=True)
        assert EptEntry.unpack(entry.pack()) == entry

    def test_flags(self):
        entry = EptEntry.make(0x1000, writable=False)
        assert entry.readable and not entry.writable and entry.executable
        assert not entry.large

    def test_empty_not_present(self):
        assert not EptEntry.empty().present

    def test_unaligned_target_rejected(self):
        with pytest.raises(EptError):
            EptEntry.make(0x1234)

    def test_oversize_target_rejected(self):
        with pytest.raises(EptError):
            EptEntry.make(1 << 52)

    def test_unpack_wrong_length_rejected(self):
        with pytest.raises(EptError):
            EptEntry.unpack(b"\x00" * 7)


class TestEptPageCount:
    def test_2m_backed_160gib_vm(self):
        """§5.4: the paper's 160 GiB VM with 2 MiB pages needs ~160 PD
        pages + a handful above — far less than one 1 GiB bank row."""
        pages = ept_page_count(160 * GiB)
        assert 160 <= pages <= 165

    def test_last_level_maps_1gib(self):
        # 512 entries x 2 MiB = 1 GiB per last-level page.
        assert ept_page_count(GiB) - ept_page_count(1) in (0, 1)

    def test_4k_backing_is_512x_more(self):
        big = ept_page_count(10 * GiB, page_size=PAGE_4K)
        small = ept_page_count(10 * GiB, page_size=PAGE_2M)
        assert big > 400 * small

    def test_all_epts_fit_one_row_group(self):
        """§5.4: one 8 KiB row holds two EPT pages; one row group per
        socket (192 rows) holds 384 EPT pages — enough for a socket of
        160 GiB-class VMs."""
        geom = DRAMGeometry.paper_default()
        pages_per_row_group = (geom.row_group_bytes // PAGE_4K)
        socket_vm_bytes = 160 * GiB
        assert ept_page_count(socket_vm_bytes) < pages_per_row_group

    def test_rejects_bad_args(self):
        with pytest.raises(EptError):
            ept_page_count(0)
        with pytest.raises(EptError):
            ept_page_count(GiB, page_size=12345)


class TestMappingAndTranslation:
    def test_4k_map_translate(self, ept):
        ept.map(gpa=0x0, hpa=0x80000, size=PAGE_4K)
        assert ept.translate(0x0) == 0x80000
        assert ept.translate(0x123) == 0x80123

    def test_2m_map_translate(self, ept):
        ept.map(gpa=0x0, hpa=PAGE_2M, size=PAGE_2M)
        assert ept.translate(0x0) == PAGE_2M
        assert ept.translate(0x150000) == PAGE_2M + 0x150000

    def test_mixed_alignment_uses_4k(self, ept):
        ept.map(gpa=0x0, hpa=0x3000, size=PAGE_4K * 4)
        assert ept.translate(PAGE_4K * 3) == 0x3000 + PAGE_4K * 3

    def test_unmapped_gpa_exits(self, ept):
        with pytest.raises(EptViolation):
            ept.translate(0x5000)

    def test_out_of_space_gpa(self, ept):
        with pytest.raises(EptViolation):
            ept.translate(1 << 48)

    def test_double_map_rejected(self, ept):
        ept.map(0x0, 0x80000, PAGE_4K)
        with pytest.raises(EptError):
            ept.map(0x0, 0x90000, PAGE_4K)

    def test_unaligned_map_rejected(self, ept):
        with pytest.raises(EptError):
            ept.map(0x10, 0x80000, PAGE_4K)

    def test_unmap_then_exit(self, ept):
        ept.map(0x0, 0x80000, PAGE_4K)
        ept.unmap(0x0, PAGE_4K)
        with pytest.raises(EptViolation):
            ept.translate(0x0)

    def test_unmap_unmapped_rejected(self, ept):
        with pytest.raises(EptViolation):
            ept.unmap(0x0, PAGE_4K)

    @pytest.mark.parametrize(
        "gpa,size",
        [(0x3000, PAGE_4K), (0x0, PAGE_2M + PAGE_4K), (PAGE_2M, PAGE_2M - PAGE_4K)],
    )
    def test_unmap_part_of_large_leaf_refused(self, ept, dram, gpa, size):
        """A range covering only part of a 2 MiB leaf is refused, and the
        table is left as it was — including leaves the range covers
        whole before reaching the partial one."""
        ept.map(0x0, 8 * 2**20, 4 * 2**20)  # two 2 MiB leaves
        tables = [dram.read(page, PAGE_4K) for page in ept.table_pages]
        with pytest.raises(EptError, match="only part of the 2 MiB leaf"):
            ept.unmap(gpa, size)
        assert [dram.read(page, PAGE_4K) for page in ept.table_pages] == tables
        assert ept.mapped_bytes == 4 * 2**20
        for g in (0x0, 0x3000, PAGE_2M, 2 * PAGE_2M - PAGE_4K):
            assert ept.translate(g) == 8 * 2**20 + g

    def test_unmap_reaching_unmapped_page_restores_cleared_leaves(self, ept):
        ept.map(0x0, 0x80000, PAGE_4K)
        with pytest.raises(EptViolation):
            ept.unmap(0x0, 2 * PAGE_4K)
        assert ept.translate(0x0) == 0x80000
        assert ept.mapped_bytes == PAGE_4K

    def test_mapped_bytes_accounting(self, ept):
        ept.map(0x0, PAGE_2M, PAGE_2M)
        assert ept.mapped_bytes == PAGE_2M
        ept.unmap(0x0, PAGE_2M)
        assert ept.mapped_bytes == 0

    def test_table_pages_tracked(self, ept):
        before = len(ept.table_pages)
        ept.map(0x0, PAGE_2M, PAGE_2M)  # needs PML4 -> PDPT -> PD
        assert len(ept.table_pages) == before + 2

    def test_tables_live_in_dram(self, ept, dram):
        ept.map(0x0, 0x80000, PAGE_4K)
        # The root table's first entry must be non-zero in DRAM itself.
        raw = dram.read(ept.root, 8)
        assert raw != bytes(8)

    def test_many_mappings(self, ept):
        for i in range(64):
            ept.map(i * PAGE_4K, 0x100000 + i * PAGE_4K, PAGE_4K)
        for i in range(64):
            assert ept.translate(i * PAGE_4K) == 0x100000 + i * PAGE_4K


class TestBitFlipConsequences:
    """The §5.4 threat model, reproduced mechanically."""

    def _flip_leaf_bits(self, dram, ept, gpa, bits):
        addr = ept.leaf_entry_addr(gpa)
        media = dram.mapping.decode(addr)
        socket, bank = media.socket, media.socket_bank_index(GEOM)
        for bit in bits:
            dram._toggle_bit(socket, bank, media.row, media.col * 8 + bit)

    def test_single_bit_flip_corrected_by_ecc(self, dram, ept):
        ept.map(0x0, 0x80000, PAGE_4K)
        self._flip_leaf_bits(dram, ept, 0x0, [13])
        assert ept.translate(0x0) == 0x80000  # ECC healed the read
        assert dram.ecc.stats.corrected >= 1

    def test_double_bit_flip_machine_checks(self, dram, ept):
        ept.map(0x0, 0x80000, PAGE_4K)
        self._flip_leaf_bits(dram, ept, 0x0, [13, 14])
        with pytest.raises(UncorrectableError):
            ept.translate(0x0)

    def test_triple_bit_flip_silently_redirects(self, dram, ept):
        """>= 3 flips in a word beat SEC-DED: the walk *succeeds* and
        returns an attacker-controlled frame — the escape Siloz must
        prevent."""
        ept.map(0x0, 0x80000, PAGE_4K)
        self._flip_leaf_bits(dram, ept, 0x0, [13, 14, 15])
        hpa = ept.translate(0x0)
        assert hpa != 0x80000  # mapping changed, no fault raised

    def test_ecc_off_single_flip_redirects(self, dram):
        ept = make_ept(dram, ecc_reads=False)
        ept.map(0x0, 0x80000, PAGE_4K)
        self._flip_leaf_bits(dram, ept, 0x0, [13])
        assert ept.translate(0x0) != 0x80000


class TestSecureEpt:
    """TDX/SNP-style detect-on-use (§5.4 hardware-based protection)."""

    def test_clean_walk_passes(self, dram):
        ept = make_ept(dram, checker=SecureEptChecker())
        ept.map(0x0, 0x80000, PAGE_4K)
        assert ept.translate(0x0) == 0x80000
        assert ept.checker.failures == 0

    def test_corrupted_entry_detected_on_use(self, dram):
        ept = make_ept(dram, checker=SecureEptChecker(), ecc_reads=False)
        ept.map(0x0, 0x80000, PAGE_4K)
        addr = ept.leaf_entry_addr(0x0)
        media = dram.mapping.decode(addr)
        dram._toggle_bit(
            media.socket, media.socket_bank_index(GEOM), media.row, media.col * 8 + 13
        )
        with pytest.raises(EptIntegrityError):
            ept.translate(0x0)
        assert ept.checker.failures == 1

    def test_triple_flip_also_detected(self, dram):
        """The case ECC misses, secure EPT catches."""
        ept = make_ept(dram, checker=SecureEptChecker())
        ept.map(0x0, 0x80000, PAGE_4K)
        addr = ept.leaf_entry_addr(0x0)
        media = dram.mapping.decode(addr)
        for bit in (13, 14, 15):
            dram._toggle_bit(
                media.socket,
                media.socket_bank_index(GEOM),
                media.row,
                media.col * 8 + bit,
            )
        with pytest.raises(EptIntegrityError):
            ept.translate(0x0)

    def test_legitimate_remap_re_records(self, dram):
        ept = make_ept(dram, checker=SecureEptChecker())
        ept.map(0x0, 0x80000, PAGE_4K)
        ept.unmap(0x0, PAGE_4K)
        ept.map(0x0, 0x90000, PAGE_4K)
        assert ept.translate(0x0) == 0x90000

    def test_checker_standalone(self):
        checker = SecureEptChecker()
        checker.record(0x1000, b"\x01" * 8)
        checker.verify(0x1000, b"\x01" * 8)
        with pytest.raises(EptIntegrityError):
            checker.verify(0x1000, b"\x02" * 8)
        checker.forget(0x1000)
        checker.verify(0x1000, b"\x03" * 8)  # no longer covered
        assert not checker.covers(0x1000)
