"""Unit/integration tests for the simulated DRAM module."""

import pytest

from repro.dram.disturbance import DisturbanceProfile
from repro.dram.geometry import DRAMGeometry
from repro.dram.module import SimulatedDram
from repro.errors import DramError, UncorrectableError
from repro.units import CACHE_LINE, MS

GEOM = DRAMGeometry.small()


def make_dram(**kwargs):
    kwargs.setdefault("profile", DisturbanceProfile.test_scale(threshold_mean=32.0))
    kwargs.setdefault("trr_config", None)  # most tests isolate disturbance
    return SimulatedDram(GEOM, **kwargs)


class TestDataPath:
    def setup_method(self):
        self.dram = make_dram()

    def test_read_back_written_data(self):
        self.dram.write(0x1000, b"hello world")
        assert self.dram.read(0x1000, 11) == b"hello world"

    def test_unwritten_memory_reads_zero(self):
        assert self.dram.read(0x2000, 16) == bytes(16)

    def test_cross_line_write(self):
        data = bytes(range(200))
        self.dram.write(CACHE_LINE - 10, data)
        assert self.dram.read(CACHE_LINE - 10, 200) == data

    def test_write_counts_activations(self):
        before = self.dram.counters.activations
        self.dram.write(0, bytes(CACHE_LINE * 3))
        assert self.dram.counters.activations == before + 3

    def test_read_rejects_zero_length(self):
        with pytest.raises(DramError):
            self.dram.read(0, 0)

    def test_clock_advances_per_act(self):
        t0 = self.dram.clock
        self.dram.activate(0, 0, 0)
        assert self.dram.clock == pytest.approx(t0 + self.dram.act_seconds)


class TestHammeringThroughModule:
    def setup_method(self):
        self.dram = make_dram(seed=5)

    def hammer_row(self, row, count, bank=0):
        for _ in range(count):
            self.dram.activate(0, bank, row)

    def test_hammer_produces_flips(self):
        self.hammer_row(3, 500)
        assert self.dram.flips_log

    def test_flips_corrupt_read_data(self):
        # Write a pattern into the victim row's addresses, hammer, and
        # observe corruption with ECC off.
        self.hammer_row(3, 500)
        victims = {f.row for f in self.dram.flips_log}
        assert victims
        row = victims.pop()
        assert self.dram.flip_bits_at(0, 0, row)

    def test_rewrite_clears_flips(self):
        self.hammer_row(3, 500)
        flip = self.dram.flips_log[0]
        # Find the HPA for the flipped byte and rewrite the whole line.
        from repro.dram.media import MediaAddress

        media = MediaAddress.from_socket_bank(
            GEOM, flip.socket, flip.bank, flip.row, (flip.bit // 8 // 64) * 64
        )
        hpa = self.dram.mapping.encode(media)
        self.dram.write(hpa, bytes(CACHE_LINE))
        remaining = {
            b
            for b in self.dram.flip_bits_at(flip.socket, flip.bank, flip.row)
            if media.col * 8 <= b < (media.col + CACHE_LINE) * 8
        }
        assert remaining == set()

    def flip_groups(self):
        return [
            (f.socket, f.row // GEOM.rows_per_subarray) for f in self.dram.flips_log
        ]

    def test_flips_by_group_accounting(self):
        self.hammer_row(3, 500)  # subarray 0 -> group 0
        assert set(self.flip_groups()) == {(0, 0)}

    def test_flips_outside_groups(self):
        self.hammer_row(3, 500)
        assert [g for g in self.flip_groups() if g not in {(0, 0)}] == []
        assert [g for g in self.flip_groups() if g not in {(0, 1)}]

    def test_refresh_window_resets_pressure(self):
        # Hammer below threshold, let 64 ms pass, hammer again below
        # threshold: no flips because pressure reset in between.
        self.hammer_row(3, 20)
        self.dram.advance_time(70 * MS)
        self.hammer_row(3, 20)
        assert self.dram.counters.refresh_windows >= 1
        assert self.dram.flips_log == []


class TestTrrIntegration:
    def test_trr_protects_uniform_hammer(self):
        from repro.dram.trr import TrrConfig

        protected = SimulatedDram(
            GEOM,
            profile=DisturbanceProfile.test_scale(threshold_mean=40.0),
            trr_config=TrrConfig(slots=4, sampled_acts_after_ref=2, sample_prob=0.05),
            trr_ref_every=16,
            seed=9,
        )
        unprotected = make_dram(seed=9, profile=DisturbanceProfile.test_scale(threshold_mean=40.0))
        for _ in range(600):
            protected.activate(0, 0, 3)
            unprotected.activate(0, 0, 3)
        assert len(protected.flips_log) < len(unprotected.flips_log)


class TestEccIntegration:
    def setup_method(self):
        self.dram = make_dram(seed=11)

    def _force_flip(self, bits, row=2):
        """Inject flips directly (test hook) into bank 0 row 2."""
        for bit in bits:
            self.dram._toggle_bit(0, 0, row, bit)

    def _hpa_of(self, row, col=0):
        from repro.dram.media import MediaAddress

        media = MediaAddress.from_socket_bank(GEOM, 0, 0, row, col)
        return self.dram.mapping.encode(media)

    def test_single_bit_corrected_on_read(self):
        self.dram.write(self._hpa_of(2), b"\x00" * CACHE_LINE)
        self._force_flip({5})
        data = self.dram.read(self._hpa_of(2), CACHE_LINE)
        assert data == b"\x00" * CACHE_LINE
        assert self.dram.ecc.stats.corrected == 1

    def test_double_bit_raises_machine_check(self):
        self._force_flip({5, 6})
        with pytest.raises(UncorrectableError):
            self.dram.read(self._hpa_of(2), CACHE_LINE)

    def test_ecc_off_returns_raw_corruption(self):
        self.dram.write(self._hpa_of(2), b"\x00" * CACHE_LINE)
        self._force_flip({0})
        data = self.dram.read(self._hpa_of(2), CACHE_LINE, ecc=False)
        assert data[0] == 1

    def test_patrol_scrub_heals_correctable(self):
        self._force_flip({5, 200})
        events = self.dram.patrol_scrub()
        assert len(events) == 2
        assert self.dram.flip_bits_at(0, 0, 2) == set()

    def test_patrol_scrub_reports_uncorrectable(self):
        from repro.dram.ecc import EccOutcome

        self._force_flip({5, 6})
        events = self.dram.patrol_scrub()
        assert events[0].outcome is EccOutcome.UNCORRECTABLE
        assert self.dram.flip_bits_at(0, 0, 2) == {5, 6}


def _reference_read(dram, hpa, length, ecc):
    """The whole-row sensing :meth:`SimulatedDram.read` replaced: slice
    :meth:`_effective_row`, then correct through ``_ecc_correct_chunk``."""
    dram.counters.reads += 1
    out = bytearray(length)
    for socket, bank, row, col, offset, take in dram._lines(hpa, length):
        dram.activate(socket, bank, row)
        chunk = dram._effective_row(socket, bank, row)[col : col + take]
        if ecc:
            chunk = dram._ecc_correct_chunk(socket, bank, row, col, take, chunk)
        out[offset : offset + take] = chunk
    return bytes(out)


def _read_outcome(read, dram, hpa, length, ecc):
    """(bytes or error type + address, ECC events logged by the read)."""
    logged = len(dram.ecc.stats.events)
    try:
        got = read(hpa, length, ecc=ecc)
    except UncorrectableError as err:
        got = (type(err), err.address, str(err))
    return got, dram.ecc.stats.events[logged:]


@pytest.mark.parametrize("backend", ["scalar", "vectorized"])
def test_sub_line_read_matches_whole_row_sensing(backend):
    """Random spans of at most one line over rows carrying 1-, 2- and
    3+-bit word errors (written and never-written rows): ``read`` returns
    the same bytes, logs the same ECC events and raises at the same
    address as sensing the whole row, with ECC on and off."""
    import random

    from repro.dram.media import MediaAddress

    rng = random.Random(2024)
    dut, ref = (make_dram(seed=9, backend=backend) for _ in range(2))
    rows = [(bank, row) for bank in range(4) for row in (2, 5, 9, 12)]
    for bank, row in rows[::2]:  # half the rows hold data
        hpa = dut.mapping.encode(MediaAddress.from_socket_bank(GEOM, 0, bank, row, 0))
        data = bytes(rng.randrange(256) for _ in range(256))
        dut.write(hpa, data)
        ref.write(hpa, data)
    for bank, row in rows:
        for word in rng.sample(range(32), 6):  # errors in the first 256 bytes
            for bit in rng.sample(range(64), rng.choice((1, 1, 2, 3, 4))):
                for dram in (dut, ref):
                    dram.inject_bit_error(0, bank, row, word * 64 + bit)
    outcomes = set()
    for _ in range(600):
        bank, row = rng.choice(rows)
        col = rng.randrange(256)
        media = MediaAddress.from_socket_bank(GEOM, 0, bank, row, col)
        hpa = dut.mapping.encode(media)
        length = rng.randrange(1, CACHE_LINE + 1)
        ecc = rng.random() < 0.7
        got = _read_outcome(dut.read, dut, hpa, length, ecc)
        expect = _read_outcome(
            lambda h, n, ecc: _reference_read(ref, h, n, ecc), ref, hpa, length, ecc
        )
        assert got == expect, (hex(hpa), length, ecc)
        outcomes.add((ecc, type(got[0]).__name__, bool(got[1])))
    assert dut.flips_log == ref.flips_log
    assert dut.clock == ref.clock
    assert dut.counters == ref.counters
    # Every kind of outcome was exercised: raw reads, corrected reads,
    # machine checks.
    assert {(False, "bytes", False), (True, "bytes", True), (True, "tuple", True)} <= outcomes


class TestRowRepairs:
    """§6: repairs relocate cells; inter-subarray repairs break isolation
    until the affected pages are offlined."""

    def test_intra_subarray_repair_keeps_containment(self):
        dram = make_dram(seed=13)
        dram.add_repair(0, 0, defective_row=3, spare_row=6)
        for _ in range(500):
            dram.activate(0, 0, 3)  # physically activates row 6
        assert dram.flips_log
        assert all(GEOM.subarray_of_row(f.row) == 0 for f in dram.flips_log)

    def test_inter_subarray_repair_breaks_containment(self):
        dram = make_dram(seed=13)
        # Row 3's cells now live at internal row 12 (subarray 1):
        dram.add_repair(0, 0, defective_row=3, spare_row=12)
        for _ in range(800):
            dram.activate(0, 0, 3)
        # Hammering media row 3 disturbs internal rows 10-14, whose data
        # belongs to media rows in subarray 1: containment is broken.
        assert any(GEOM.subarray_of_row(f.row) == 1 for f in dram.flips_log)

    def test_spare_neighbors_map_back_to_defective_row(self):
        dram = make_dram(seed=13)
        dram.add_repair(0, 0, defective_row=3, spare_row=12)
        # Hammering media row 11 (internal 11) disturbs internal 12,
        # whose data is media row 3's.
        for _ in range(800):
            dram.activate(0, 0, 11)
        assert any(f.row == 3 for f in dram.flips_log)

    def test_abandoned_cells_absorb_flips(self):
        dram = make_dram(seed=13)
        dram.add_repair(0, 0, defective_row=12, spare_row=14)
        # Internal row 12's cells are disconnected; flips there vanish.
        for _ in range(800):
            dram.activate(0, 0, 11)
        assert all(f.row != 12 for f in dram.flips_log)

    def test_duplicate_repair_rejected(self):
        dram = make_dram()
        dram.add_repair(0, 0, 3, 6)
        with pytest.raises(DramError):
            dram.add_repair(0, 0, 3, 7)


class TestMisc:
    def test_mapping_geometry_must_match(self):
        from repro.dram.mapping import SkylakeMapping

        other = DRAMGeometry.small(sockets=2)
        with pytest.raises(DramError):
            SimulatedDram(GEOM, SkylakeMapping.for_small_geometry(other))

    def test_advance_time_rejects_negative(self):
        with pytest.raises(DramError):
            make_dram().advance_time(-1.0)

    def test_paper_scale_module_is_cheap_when_idle(self):
        dram = SimulatedDram(DRAMGeometry.paper_default())
        dram.write(0, b"x")
        assert dram.read(0, 1) == b"x"
