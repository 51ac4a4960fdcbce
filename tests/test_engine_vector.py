"""Unit + edge-case tests for the vectorized engine and its kernels.

The broad equivalence evidence lives in ``tests/test_differential.py``
(seeded mixed programs, vectorized vs the scalar reference).  This module pins
the corners that random programs rarely hit — empty and single-element
batches, batches spanning a refresh-window boundary — plus the exactness
contracts of the individual numpy kernels: the MT19937 bulk-uniform
transplant, period detection, the vectorized address decode, the ECC
word-grouping paths, and the bulk ``read_region`` primitive.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import repro.engine.vector as vec
from repro.dram.disturbance import DisturbanceProfile
from repro.dram.ecc import VECTOR_BITS_CUTOFF, WORD_BITS, EccEngine, _words_and_counts
from repro.dram.geometry import DRAMGeometry
from repro.dram.mapping import DECODE_CACHE_SIZE, SkylakeMapping
from repro.dram.module import SimulatedDram
from repro.dram.trr import TrrConfig
from repro.engine import BackendError, SimBackend
from repro.errors import MappingError
from repro.units import CACHE_LINE

BACKENDS = ("scalar", "vectorized")

#: TRR on sends every batch down the per-ACT loop; TRR off lets periodic
#: batches reach the tile kernel.
TRR_CONFIGS = (TrrConfig(), None)


def _dram(
    backend: str,
    *,
    seed: int = 11,
    refresh_window: float | None = None,
    trr_config: TrrConfig | None = TrrConfig(),
):
    geom = DRAMGeometry.small(rows_per_bank=128, rows_per_subarray=16)
    kwargs = {} if refresh_window is None else {"refresh_window": refresh_window}
    return SimulatedDram(
        geom,
        profile=DisturbanceProfile.test_scale(threshold_mean=60.0),
        seed=seed,
        backend=backend,
        trr_config=trr_config,
        **kwargs,
    )


def _snapshot(dram) -> dict:
    return {
        "flips": list(dram.flips_log),
        "stored": {k: sorted(v) for k, v in dram._flips.items()},
        "counters": vars(dram.counters).copy(),
        "clock": dram.clock,
        "trr": None if dram.trr is None else dram.trr.neighbor_refreshes,
    }


def _run_on_all_backends(ops, monkeypatch) -> None:
    """Apply *ops* to one DRAM per backend and TRR config; assert
    identical snapshots per config.

    The vector path is forced (``MIN_VECTOR_BATCH = 0``) so even tiny
    periodic batches reach the tile kernel when TRR is off.
    """
    monkeypatch.setattr(vec, "MIN_VECTOR_BATCH", 0)
    for trr_config in TRR_CONFIGS:
        snaps = {}
        for backend in BACKENDS:
            dram = _dram(
                backend,
                refresh_window=ops.get("refresh_window"),
                trr_config=trr_config,
            )
            for bank, rows in ops["batches"]:
                dram.activate_batch(0, bank, rows)
            snaps[backend] = _snapshot(dram)
        for backend in BACKENDS[1:]:
            assert snaps[backend] == snaps["scalar"], (backend, trr_config)


class TestBackendParse:
    def test_members(self):
        assert [b.value for b in SimBackend] == ["scalar", "vectorized"]
        assert SimBackend.parse("vectorized") is SimBackend.VECTORIZED

    def test_retired_name_is_a_typed_error(self):
        with pytest.raises(BackendError) as exc:
            SimBackend.parse("batched")
        assert "'batched'" in str(exc.value)
        assert "'scalar'" in str(exc.value) and "'vectorized'" in str(exc.value)


class TestBulkUniforms:
    def test_matches_sequential_draws(self):
        a, b = random.Random(99), random.Random(99)
        assert vec.bulk_uniforms(a, 700).tolist() == [b.random() for _ in range(700)]

    def test_stream_continues_exactly(self):
        a, b = random.Random(5), random.Random(5)
        vec.bulk_uniforms(a, 123)
        for _ in range(123):
            b.random()
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_empty_draw_is_a_no_op(self):
        a = random.Random(1)
        state = a.getstate()
        assert vec.bulk_uniforms(a, 0).size == 0
        assert a.getstate() == state


class TestFindPeriod:
    def test_tiled_pattern(self):
        assert vec._find_period(np.array([3, 7] * 50)) == 2

    def test_constant_row(self):
        assert vec._find_period(np.array([5] * 10)) == 1

    def test_partial_tile_rejected(self):
        # ends mid-period: 5 % 2 != 0, and no longer period tiles either
        assert vec._find_period(np.array([1, 2, 1, 2, 1])) == 0

    def test_aperiodic(self):
        assert vec._find_period(np.array([1, 2, 3, 4, 5, 6])) == 0

    def test_single_element(self):
        assert vec._find_period(np.array([4])) == 0


class TestBatchEdgeCases:
    """Identical behavior on both backends on corner batches."""

    def test_empty_batch(self, monkeypatch):
        _run_on_all_backends({"batches": [(0, [])]}, monkeypatch)

    def test_single_element_batch(self, monkeypatch):
        _run_on_all_backends({"batches": [(1, [40])]}, monkeypatch)

    def test_single_element_then_hammer(self, monkeypatch):
        _run_on_all_backends(
            {"batches": [(2, [61]), (2, [60, 62] * 400)]}, monkeypatch
        )

    def test_batch_spanning_refresh_window(self, monkeypatch):
        # 60 ns per ACT and a 12 µs window: a 600-ACT batch crosses the
        # refresh-window boundary twice mid-batch, so with TRR off the
        # window check sends the span down the per-ACT loop.
        _run_on_all_backends(
            {
                "refresh_window": 200 * 60e-9,
                "batches": [(0, [30, 32] * 300), (3, [77] * 500)],
            },
            monkeypatch,
        )

    def test_empty_batch_returns_no_flips(self):
        dram = _dram("vectorized")
        assert dram.activate_batch(0, 0, []) == []
        assert dram.clock == 0.0


class TestDispatch:
    """The one dispatch rule: which batches reach the tile kernel."""

    def _spans(self, monkeypatch, dram, batches) -> list[int]:
        """ACTs each ``_span_tiled`` call covered, in call order."""
        spans: list[int] = []
        tiled = vec._span_tiled

        def spy(dram, dist, socket, bank, entry, rounds, shift, clk):
            spans.append(entry["L"] * rounds)
            return tiled(dram, dist, socket, bank, entry, rounds, shift, clk)

        monkeypatch.setattr(vec, "_span_tiled", spy)
        for bank, rows in batches:
            dram.activate_batch(0, bank, rows)
        return spans

    def test_periodic_batch_without_trr_is_tiled(self, monkeypatch):
        dram = _dram("vectorized", trr_config=None)
        # The first period draws thresholds per ACT; the rest is tiled.
        assert self._spans(monkeypatch, dram, [(0, [30, 32] * 300)]) == [598]

    @pytest.mark.parametrize(
        "kwargs, rows",
        [
            ({"trr_config": TrrConfig()}, [30, 32] * 300),
            ({"trr_config": None}, [30, 31, 32] * 99 + [30]),
            ({"trr_config": None, "refresh_window": 200 * 60e-9}, [30, 32] * 300),
        ],
        ids=["trr-on", "aperiodic", "crosses-window"],
    )
    def test_other_batches_run_per_act(self, monkeypatch, kwargs, rows):
        dram = _dram("vectorized", **kwargs)
        assert self._spans(monkeypatch, dram, [(0, rows)]) == []
        assert dram.counters.activations == len(rows)

    @pytest.mark.parametrize("last_act, tiled", [(399, True), (400, False)])
    def test_window_check_is_exact_at_the_boundary(self, monkeypatch, last_act, tiled):
        # The window closes exactly on ACT 400 (the scalar clock fold).
        # A second batch ending on ACT 399 is tiled; one ending on ACT
        # 400 runs per-ACT and takes the window there.
        act_s = _dram("scalar").act_seconds
        window = 0.0
        for _ in range(400):
            window += act_s
        batches = [(0, [30, 32] * 100), (0, [30] * (last_act - 200))]
        snaps = {}
        for backend in BACKENDS:
            dram = _dram(backend, trr_config=None, refresh_window=window)
            if backend == "vectorized":
                spans = self._spans(monkeypatch, dram, batches)
                assert len(spans) == (2 if tiled else 1)
            else:
                for bank, rows in batches:
                    dram.activate_batch(0, bank, rows)
            assert dram.counters.refresh_windows == (0 if tiled else 1)
            snaps[backend] = _snapshot(dram)
        assert snaps["vectorized"] == snaps["scalar"]


#: Programs for the touch-list walk: (profile, repairs, batches).  The
#: "edges" profile draws every threshold as exactly 10.0 (sigma 0), so
#: pressures are sums of 1.0s and 0.1s: a distance-2 victim of a 100-ACT
#: hammer folds to 9.99999999999998, inside the screen but never across.
_WALK_PROGRAMS = {
    "edges": (
        DisturbanceProfile(
            name="edges",
            threshold_mean=10.0,
            threshold_sigma=0.0,
            distance_weights=(1.0, 0.1),
        ),
        [(5, 100, 84)],
        [
            (0, [30] * 100),  # 29/31 cross ten times; 28/32 never cross
            (1, [30] * 99),  # leaves 29 and 31 at 9.0 ...
            (1, [30] * 100),  # ... so their first touch here crosses
            (2, [20] * 100),
            (2, [24] * 100),  # the [20] entry, shifted by 4 rows
            (3, ([50] + [51] * 40) * 5),  # 50 crosses between own ACTs
            (5, [100] * 100),  # media 100 lives in internal row 84
        ],
    ),
    "spills": (
        DisturbanceProfile(name="spills", threshold_mean=0.4, threshold_sigma=0.15),
        [],
        [(0, [30, 33] * 60), (0, [31, 33, 35] * 40), (4, [70, 72] * 50)],
    ),
}


def _walk_transcript(backend: str, program: str, monkeypatch) -> tuple[dict, set]:
    """Run one walk program; return the end state and, on the vectorized
    backend, the walk cases its tiled spans reached."""
    profile, repairs, batches = _WALK_PROGRAMS[program]
    geom = DRAMGeometry.small(rows_per_bank=128, rows_per_subarray=16)
    dram = SimulatedDram(geom, profile=profile, seed=3, backend=backend, trr_config=None)
    for bank, media, internal in repairs:
        dram.add_repair(0, bank, media, internal)
    cases: set[str] = set()
    seen: set[int] = set()
    calls: list[list] = []
    tiled, emit = vec._span_tiled, vec._emit_events

    def spy_emit(dram, dist, socket, bank, events, *args):
        calls[-1].extend(events)
        return emit(dram, dist, socket, bank, events, *args)

    def spy_span(dram, dist, socket, bank, entry, rounds, shift, clk):
        calls.append([])
        vr = entry["vrows_arr"] + shift
        _, _, press, thresh = dist._bank_tables(socket, bank)
        bound = press[vr] + entry["total_add_base"] * rounds
        T = thresh[vr].copy()
        out = tiled(dram, dist, socket, bank, entry, rounds, shift, clk)
        events = calls[-1]
        crossed = {j for _t, _o, j, _s in events}
        pure = [j for j in range(entry["V"]) if not entry["has_self"][j]]
        for t, _o, j, spills in events:
            if entry["has_self"][j]:
                cases.add("self-activating victim crosses")
            elif t == entry["touches"][j][0][0]:
                cases.add("crossing on the first touch")
            if spills > 1:
                cases.add("multi-spill crossing")
        if any(sum(e[2] == j for e in events) > 1 for j in pure):
            cases.add("pure victim crosses more than once")
        if any(bound[j] >= T[j] and j not in crossed for j in pure):
            cases.add("screened victim never crosses")
        if events and shift and id(entry) in seen:
            cases.add("cached entry reused at a shifted base row")
        if events and dram._repairs.get((socket, bank)):
            cases.add("repaired row")
        seen.add(id(entry))
        return out

    monkeypatch.setattr(vec, "_span_tiled", spy_span)
    monkeypatch.setattr(vec, "_emit_events", spy_emit)
    for bank, rows in batches:
        dram.activate_batch(0, bank, rows)
    dist = dram.disturbance
    banks = sorted({bank for bank, _rows in batches})
    rows = range(geom.rows_per_bank)
    if backend == "scalar":
        thresholds = [[dist._threshold.get((0, b, r)) for r in rows] for b in banks]
    else:
        thresholds = [
            [None if t != t else t for t in dist._bank_tables(0, b)[1]] for b in banks
        ]
    state = {
        "flips": list(dram.flips_log),
        "stored": {k: sorted(v) for k, v in dram._flips.items()},
        "pressure": [[dist.pressure_on(0, b, r) for r in rows] for b in banks],
        "thresholds": thresholds,
        "clock": dram.clock,
        "counters": vars(dram.counters).copy(),
        "rng": dist._rng.getstate(),
    }
    return state, cases


class TestTouchListWalk:
    """The screened-victim walk in ``_span_tiled`` — each victim over its
    own touch list, a pure victim from its first crossing — replays the
    scalar reference exactly on every case it distinguishes."""

    def test_walk_cases_replay_identically(self, monkeypatch):
        reached: set[str] = set()
        for program in _WALK_PROGRAMS:
            scalar, _ = _walk_transcript("scalar", program, monkeypatch)
            vector, cases = _walk_transcript("vectorized", program, monkeypatch)
            assert scalar["flips"], program
            for key in scalar:
                assert vector[key] == scalar[key], (program, key)
            reached |= cases
        # Not vacuous: every case of the walk ran in a tiled span.
        assert reached == {
            "pure victim crosses more than once",
            "crossing on the first touch",
            "multi-spill crossing",
            "screened victim never crosses",
            "self-activating victim crosses",
            "cached entry reused at a shifted base row",
            "repaired row",
        }


class TestVectorizedDecode:
    def setup_method(self):
        self.geom = DRAMGeometry.small(rows_per_bank=128, rows_per_subarray=16)
        self.mapping = SkylakeMapping.for_small_geometry(self.geom)
        rng = random.Random(17)
        self.hpas = [
            rng.randrange(self.geom.total_bytes // CACHE_LINE) * CACHE_LINE
            for _ in range(500)
        ]

    def test_decode_media_batch_matches_scalar(self):
        columns = self.mapping.decode_media_batch(np.asarray(self.hpas, dtype=np.int64))
        for i, hpa in enumerate(self.hpas):
            media = self.mapping.decode(hpa)
            expect = (
                media.socket,
                media.socket_bank_index(self.geom),
                media.channel,
                media.row,
                media.col,
            )
            assert expect == self.mapping._decode_flat(hpa), hex(hpa)
            assert expect == tuple(int(c[i]) for c in columns), hex(hpa)

    @staticmethod
    def _expected_lines(mapping, hpa: int, length: int) -> list:
        """``_lines`` reference: the uncached scalar decode of every piece."""
        expect, offset = [], 0
        while offset < length:
            take = min(CACHE_LINE - (hpa + offset) % CACHE_LINE, length - offset)
            m = mapping.decode(hpa + offset)
            expect.append(
                (m.socket, m.socket_bank_index(mapping.geom), m.row, m.col, offset, take)
            )
            offset += take
        return expect

    def test_lines_match_scalar_decode(self):
        skylake = DRAMGeometry.small(sockets=2, rows_per_bank=512, rows_per_subarray=64)
        for mapping in (self.mapping, SkylakeMapping(skylake)):
            self._check_lines(mapping)

    def _check_lines(self, mapping):
        geom = mapping.geom
        dram = SimulatedDram(geom, mapping, backend="scalar")
        total = geom.total_bytes
        rng = random.Random(23)
        for _ in range(50):  # multi-line spans: the batch branch
            hpa = rng.randrange(total - 4096)
            length = rng.randrange(CACHE_LINE + 1, 4096 - 1)
            assert dram._lines(hpa, length) == self._expected_lines(mapping, hpa, length)
        # Sub-line and line-crossing spans (the short branch) over a small
        # pool of lines, so most pieces hit the warm line cache.
        lines = [rng.randrange(total // CACHE_LINE - 1) for _ in range(48)]
        lines.append(total // CACHE_LINE - 1)  # the last line
        for _ in range(3000):
            line = rng.choice(lines)
            hpa = line * CACHE_LINE + rng.randrange(CACHE_LINE)
            length = rng.randrange(1, min(CACHE_LINE, total - hpa) + 1)
            assert dram._lines(hpa, length) == self._expected_lines(mapping, hpa, length), (
                hpa,
                length,
            )
        info = mapping.decode_flat.cache_info()
        assert info.hits > info.misses
        assert info.maxsize == DECODE_CACHE_SIZE
        assert info.currsize <= DECODE_CACHE_SIZE
        # A warm cache never turns an out-of-range address into a hit.
        for hpa, length in ((-8, 8), (-1, 2), (total, 8), (total - 4, 8)):
            with pytest.raises(MappingError):
                dram._lines(hpa, length)
        assert mapping.decode_flat.cache_info().currsize <= DECODE_CACHE_SIZE

    def test_decode_batch_range_check(self):
        with pytest.raises(MappingError):
            self.mapping.decode_media_batch(
                np.asarray([self.geom.total_bytes], dtype=np.int64)
            )


class TestEccVectorKernels:
    def _reference(self, bits: set[int]) -> list[tuple[int, int]]:
        by_word: dict[int, int] = {}
        for b in bits:
            by_word[b // WORD_BITS] = by_word.get(b // WORD_BITS, 0) + 1
        return sorted(by_word.items())

    @pytest.mark.parametrize("n", [1, 5, VECTOR_BITS_CUTOFF, 200])
    def test_words_and_counts_both_paths(self, n):
        rng = random.Random(n)
        bits = {rng.randrange(8 * 1024 * 8) for _ in range(n)}
        assert list(_words_and_counts(bits)) == self._reference(bits)

    @pytest.mark.parametrize("n", [1, 5, VECTOR_BITS_CUTOFF, 200])
    def test_correctable_bits_both_paths(self, n):
        rng = random.Random(1000 + n)
        bits = {rng.randrange(8 * 1024 * 8) for _ in range(n)}
        expect = {
            b for b in bits if sum(1 for o in bits if o // WORD_BITS == b // WORD_BITS) == 1
        }
        assert EccEngine().correctable_bits(bits) == expect


class TestReadRegion:
    def _prepare(self, backend: str):
        dram = _dram(backend, seed=3)
        rng = random.Random(3)
        for _ in range(6):
            hpa = rng.randrange(dram.geom.total_bytes // 256) * 256
            dram.write(hpa, bytes([rng.randrange(256)]) * 256)
        # hammer to plant real flips (threshold_mean=60 flips quickly)
        for bank in range(4):
            dram.activate_batch(0, bank, [50, 52] * 400)
        return dram, rng

    def test_bytes_match_per_line_read(self):
        reader, rng_a = self._prepare("vectorized")
        liner, _rng_b = self._prepare("vectorized")
        assert reader.flips_log, "no flips planted — test would be vacuous"
        for _ in range(20):
            hpa = rng_a.randrange(reader.geom.total_bytes - 3000)
            length = _rng_b.randrange(1, 3000)
            assert reader.read_region(hpa, length) == liner.read(hpa, length), (
                hpa,
                length,
            )

    def test_backend_independent(self):
        outs = {}
        for backend in BACKENDS:
            dram, rng = self._prepare(backend)
            hpa = rng.randrange(dram.geom.total_bytes - 8192)
            outs[backend] = (
                dram.read_region(hpa, 8192),
                _snapshot(dram),
            )
        for backend in BACKENDS[1:]:
            assert outs[backend] == outs["scalar"], backend

    def test_one_act_per_touched_row(self):
        dram = _dram("scalar")
        row_bytes = dram.geom.row_bytes
        before = dram.counters.activations
        dram.read_region(0, 4 * row_bytes)
        spanned = {
            (s, b, r) for s, b, r, _c, _o, _t in dram._lines(0, 4 * row_bytes)
        }
        assert dram.counters.activations - before == len(spanned)
