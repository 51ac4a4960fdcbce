"""Tests for the FR-FCFS scheduler and the page policies."""

import pytest

from repro.dram.geometry import DRAMGeometry
from repro.dram.mapping import SkylakeMapping
from repro.errors import MemCtrlError
from repro.memctrl import MemoryAccess, MemoryController
from repro.memctrl.frfcfs import FrFcfsController
from repro.units import CACHE_LINE

GEOM = DRAMGeometry.small(sockets=1)
MAPPING = SkylakeMapping.for_small_geometry(GEOM)


def conflict_trace(n=400):
    """Two interleaved row streams to one bank: in-order thrashes the
    row buffer; FR-FCFS can batch them."""
    stride = GEOM.row_group_bytes
    return [MemoryAccess((i % 2) * stride) for i in range(n)]


def seq_trace(n=400):
    return [MemoryAccess(i * CACHE_LINE) for i in range(n)]


class TestFrFcfs:
    def test_recovers_row_locality(self):
        in_order = MemoryController(MAPPING).run_trace(conflict_trace())
        fr = FrFcfsController(MAPPING, window=16).run_trace(conflict_trace())
        assert fr.hit_rate > in_order.hit_rate
        assert fr.total_time_ns < in_order.total_time_ns

    def test_window_one_equals_in_order_hits(self):
        fr = FrFcfsController(MAPPING, window=1).run_trace(conflict_trace())
        base = MemoryController(MAPPING).run_trace(conflict_trace())
        assert fr.row_hits == base.row_hits

    def test_same_totals_as_in_order(self):
        trace = seq_trace()
        fr = FrFcfsController(MAPPING).run_trace(trace)
        base = MemoryController(MAPPING).run_trace(trace)
        assert fr.accesses == base.accesses
        assert fr.bytes_transferred == base.bytes_transferred

    def test_empty_trace_rejected(self):
        with pytest.raises(MemCtrlError):
            FrFcfsController(MAPPING).run_trace([])

    def test_bad_window_rejected(self):
        with pytest.raises(MemCtrlError):
            FrFcfsController(MAPPING, window=0)

    def test_subarray_independence_still_holds(self):
        """§7.4's invariant survives the smarter scheduler."""
        fr = FrFcfsController(MAPPING)
        low = fr.run_trace(seq_trace())
        high = fr.run_trace(
            [
                MemoryAccess(a.hpa + GEOM.subarray_group_bytes)
                for a in seq_trace()
            ]
        )
        assert low.total_time_ns == pytest.approx(high.total_time_ns)


class TestPagePolicy:
    def test_streams_prefer_open_page(self):
        open_mc = MemoryController(MAPPING, page_policy="open")
        closed_mc = MemoryController(MAPPING, page_policy="closed")
        trace = seq_trace(800)
        assert (
            open_mc.run_trace(trace).total_time_ns
            < closed_mc.run_trace(trace).total_time_ns
        )

    def test_conflict_traffic_prefers_closed_page(self):
        """Closed-page skips the precharge on guaranteed conflicts."""
        open_mc = MemoryController(MAPPING, page_policy="open")
        closed_mc = MemoryController(MAPPING, page_policy="closed")
        trace = conflict_trace(400)
        assert (
            closed_mc.run_trace(trace).avg_latency_ns
            < open_mc.run_trace(trace).avg_latency_ns
        )

    def test_closed_page_never_hits(self):
        mc = MemoryController(MAPPING, page_policy="closed")
        assert mc.run_trace(seq_trace(400)).row_hits == 0

    def test_unknown_policy_rejected(self):
        with pytest.raises(MemCtrlError):
            MemoryController(MAPPING, page_policy="adaptive")
