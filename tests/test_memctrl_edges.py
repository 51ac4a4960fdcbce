"""Memory-controller edge cases, parameterized over both backends.

The vectorized pipeline's closed forms (cumsum + running max) have their
own degenerate-input hazards — empty segments, single elements, blackout
boundaries, interleave wrap-around — that the scalar loop never sees.
Each case here pins the behaviour once and asserts all backends agree.
"""

from __future__ import annotations

import pytest

from repro.dram.geometry import DRAMGeometry
from repro.dram.mapping import SkylakeMapping
from repro.errors import MemCtrlError
from repro.memctrl import (
    DDR4Timings,
    FrFcfsController,
    MemoryAccess,
    MemoryController,
)

BACKENDS = ("scalar", "vectorized")
GEOM = DRAMGeometry.small()
MAPPING = SkylakeMapping.for_small_geometry(GEOM)
T = DDR4Timings.ddr4_2933()


def _line(i: int) -> int:
    return (i * 64) % GEOM.total_bytes


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


class TestDegenerateTraces:
    def test_empty_trace_rejected(self, backend):
        with pytest.raises(MemCtrlError):
            MemoryController(MAPPING, backend=backend).run_trace([])
        with pytest.raises(MemCtrlError):
            FrFcfsController(MAPPING, backend=backend).run_trace([])

    def test_empty_batch_rejected(self, backend):
        from repro.memctrl.pipeline import AccessBatch

        with pytest.raises(MemCtrlError):
            MemoryController(MAPPING, backend=backend).run_batch(
                AccessBatch.from_accesses([])
            )

    def test_single_request(self, backend):
        result = MemoryController(MAPPING, backend=backend).run_trace(
            [MemoryAccess(hpa=0, cpu_gap_ns=3.0)]
        )
        assert result.accesses == 1
        assert result.row_misses == 1 and result.row_hits == 0
        # One idle-bank access at t=3: blackout window 0 delays it to
        # tRFC, then activate+read+burst.
        assert result.total_time_ns == T.t_rfc + T.idle_latency
        assert result.refreshes == 1

    def test_single_request_frfcfs_any_window(self, backend):
        for window in (1, 4, 64):
            result = FrFcfsController(
                MAPPING, window=window, backend=backend
            ).run_trace([MemoryAccess(hpa=0)])
            assert result.accesses == 1


class TestRefreshBoundaries:
    """Bursts that straddle refresh-blackout edges must agree exactly —
    the vectorized path computes the blackout with floor division, the
    scalar path with ``math.floor``."""

    def _burst_at(self, start_gap: float, count: int = 8) -> list[MemoryAccess]:
        gaps = [start_gap] + [0.5] * (count - 1)
        return [
            MemoryAccess(hpa=_line(i), cpu_gap_ns=gaps[i]) for i in range(count)
        ]

    @pytest.mark.parametrize(
        "start_gap",
        (
            0.0,  # lands at t=0, inside blackout 0
            349.5,  # just inside blackout 0 (tRFC = 350)
            350.0,  # first tick after blackout 0
            7799.5,  # just before blackout 1 (tREFI = 7800)
            7800.0,  # exactly at blackout 1's start
        ),
    )
    def test_blackout_edge_bursts_identical(self, start_gap):
        trace = self._burst_at(start_gap)
        results = {
            b: MemoryController(MAPPING, backend=b).run_trace(list(trace))
            for b in BACKENDS
        }
        for backend in BACKENDS[1:]:
            assert vars(results["scalar"]) == vars(results[backend]), backend

    def test_burst_spanning_many_windows(self, backend):
        # 40 accesses spaced ~one blackout apart: every access lands in
        # a fresh window, so each window is counted exactly once.
        trace = [
            MemoryAccess(hpa=_line(i), cpu_gap_ns=T.t_refi) for i in range(40)
        ]
        result = MemoryController(MAPPING, backend=backend).run_trace(trace)
        assert result.refreshes == 40

    def test_refresh_counts_distinct_windows(self, backend):
        # Many accesses inside one blackout, all on one channel (same
        # line): one refresh per stalled channel-window, not per access.
        trace = [MemoryAccess(hpa=0, cpu_gap_ns=0.0) for _ in range(6)]
        result = MemoryController(MAPPING, backend=backend).run_trace(trace)
        assert result.refreshes == 1


class TestInterleaveBoundaries:
    """Addresses at channel/bank-interleave wrap points decode to the
    extremes of the bank space; the vectorized bank-grouping must not
    mix them up."""

    def _boundary_trace(self) -> list[MemoryAccess]:
        last_line = GEOM.total_bytes - 64
        hpas = [0, 64, last_line, last_line - 64, 0, last_line]
        return [MemoryAccess(hpa=h, cpu_gap_ns=1.0) for h in hpas]

    def test_boundary_addresses_identical(self):
        trace = self._boundary_trace()
        results = {
            b: MemoryController(MAPPING, backend=b).run_trace(list(trace))
            for b in BACKENDS
        }
        for backend in BACKENDS[1:]:
            assert vars(results["scalar"]) == vars(results[backend]), backend

    def test_boundary_revisits_hit(self, backend):
        # hpa 0 and the last line are revisited → two row hits on the
        # open-page policy, on every backend.
        result = MemoryController(MAPPING, backend=backend).run_trace(
            self._boundary_trace()
        )
        assert result.row_hits == 2
        assert result.row_misses == 4

    def test_out_of_range_hpa_rejected(self, backend):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            MemoryController(MAPPING, backend=backend).run_trace(
                [MemoryAccess(hpa=GEOM.total_bytes)]
            )


class TestAccessBatchValidation:
    def test_mismatched_columns_rejected(self):
        import numpy as np

        from repro.memctrl.pipeline import AccessBatch

        with pytest.raises(MemCtrlError):
            AccessBatch(
                hpa=np.zeros(3, dtype=np.int64),
                write=np.zeros(2, dtype=bool),
                cpu_gap_ns=np.zeros(3),
                home_socket=np.zeros(3, dtype=np.int64),
                tag=np.zeros(3, dtype=np.int64),
            )

    def test_roundtrip_preserves_fields(self):
        from repro.memctrl.pipeline import AccessBatch

        trace = [
            MemoryAccess(hpa=_line(3), cpu_gap_ns=1.25, home_socket=0, tag=4)
        ]
        rebuilt = AccessBatch.from_accesses(trace).to_accesses()
        assert [vars(a) for a in trace] == [vars(a) for a in rebuilt]
