"""Unit tests for the memory-controller timing model."""

import pytest

from repro.dram.geometry import DRAMGeometry
from repro.dram.mapping import SkylakeMapping
from repro.errors import MappingError, MemCtrlError
from repro.memctrl import (
    AccessKind,
    DDR4Timings,
    MemoryAccess,
    MemoryController,
    RestrictedInterleaveMapping,
    TraceResult,
)
from repro.memctrl.scheduler import BankState, ChannelState
from repro.units import CACHE_LINE

GEOM = DRAMGeometry.small(sockets=2)
MAPPING = SkylakeMapping.for_small_geometry(GEOM)
T = DDR4Timings.ddr4_2933()


def seq_trace(n, stride=CACHE_LINE, base=0, **kwargs):
    return [MemoryAccess(base + i * stride, **kwargs) for i in range(n)]


class TestTimings:
    def test_miss_costs_more_than_hit(self):
        assert T.miss_latency > T.hit_latency

    def test_rejects_nonpositive(self):
        with pytest.raises(MemCtrlError):
            DDR4Timings(t_rcd=0)


class TestBankState:
    def test_first_access_is_miss(self):
        bank = BankState()
        done, hit = bank.access(5, 0.0, T)
        assert not hit and bank.misses == 1

    def test_same_row_hits(self):
        bank = BankState()
        bank.access(5, 0.0, T)
        done, hit = bank.access(5, 100.0, T)
        assert hit and bank.hits == 1
        assert done == pytest.approx(100.0 + T.hit_latency)

    def test_conflict_pays_miss_latency(self):
        bank = BankState()
        bank.access(5, 0.0, T)
        done, hit = bank.access(9, 100.0, T)
        assert not hit
        assert done == pytest.approx(100.0 + T.miss_latency)

    def test_bank_serializes(self):
        bank = BankState()
        bank.access(5, 0.0, T)
        done, _ = bank.access(9, 0.0, T)  # issued while bank busy
        assert done > T.miss_latency  # waited for ready_at


class TestChannelState:
    def test_bus_serializes_bursts(self):
        chan = ChannelState(T)
        first = chan.claim_bus(0.0)
        second = chan.claim_bus(0.0)
        assert second == pytest.approx(first + T.t_burst)

    def test_refresh_blackout_grid(self):
        chan = ChannelState(T)
        # Window 0 blocks [0, tRFC): an access at t=0 waits out the
        # whole refresh; one just past the blackout is untouched.
        assert chan.refresh_adjust(0.0) == T.t_rfc
        assert chan.refresh_adjust(T.t_rfc + 1.0) == T.t_rfc + 1.0
        # Window 1 starts at tREFI and delays to its end.
        assert chan.refresh_adjust(T.t_refi + 1.0) == T.t_refi + T.t_rfc
        assert chan.refreshes == 2

    def test_refresh_window_counted_once(self):
        chan = ChannelState(T)
        chan.refresh_adjust(0.0)
        chan.refresh_adjust(1.0)
        chan.refresh_adjust(T.t_rfc / 2)
        assert chan.refreshes == 1


class TestController:
    def test_empty_trace_rejected(self):
        with pytest.raises(MemCtrlError):
            MemoryController(MAPPING).run_trace([])

    def test_rejects_bad_outstanding(self):
        with pytest.raises(MemCtrlError):
            MemoryController(MAPPING, max_outstanding=0)

    def test_counts(self):
        result = MemoryController(MAPPING).run_trace(
            seq_trace(10) + [MemoryAccess(0, kind=AccessKind.WRITE)]
        )
        assert result.accesses == 11
        assert result.reads == 10 and result.writes == 1
        assert result.bytes_transferred == 11 * 64

    def test_sequential_trace_uses_all_banks(self):
        result = MemoryController(MAPPING).run_trace(seq_trace(256))
        assert result.banks_touched == GEOM.banks_per_socket

    def test_deterministic(self):
        mc = MemoryController(MAPPING)
        a = mc.run_trace(seq_trace(500))
        b = mc.run_trace(seq_trace(500))
        assert a.total_time_ns == b.total_time_ns

    def test_execution_time_monotonic_in_length(self):
        mc = MemoryController(MAPPING)
        short = mc.run_trace(seq_trace(100))
        long = mc.run_trace(seq_trace(1000))
        assert long.total_time_ns > short.total_time_ns

    def test_cpu_gap_extends_time(self):
        mc = MemoryController(MAPPING)
        tight = mc.run_trace(seq_trace(100))
        slack = mc.run_trace(seq_trace(100, cpu_gap_ns=100.0))
        assert slack.total_time_ns > tight.total_time_ns

    def test_remote_socket_penalty(self):
        mc = MemoryController(MAPPING)
        local = mc.run_trace(seq_trace(200, home_socket=0))
        remote = mc.run_trace(seq_trace(200, home_socket=1))
        assert remote.avg_latency_ns > local.avg_latency_ns
        assert remote.remote_accesses == 200
        assert local.remote_accesses == 0

    def test_row_locality_pays_off(self):
        """Same-row streaming beats row-conflict ping-pong."""
        mc = MemoryController(MAPPING)
        # All accesses to one bank: alternate rows vs same row.
        line0 = 0  # bank 0 row 0
        same_row = [MemoryAccess(line0) for _ in range(200)]
        row_stride = GEOM.row_group_bytes  # next row group, same bank
        conflict = [
            MemoryAccess(line0 + (i % 2) * row_stride) for i in range(200)
        ]
        hits = mc.run_trace(same_row)
        misses = mc.run_trace(conflict)
        assert hits.hit_rate > 0.95
        assert misses.hit_rate == 0.0
        assert misses.total_time_ns > hits.total_time_ns

    def test_bandwidth_positive(self):
        result = MemoryController(MAPPING).run_trace(seq_trace(1000))
        assert result.bandwidth_gib_s > 0

    def test_empty_result_properties(self):
        r = TraceResult()
        assert r.hit_rate == 0.0 and r.avg_latency_ns == 0.0
        assert r.bandwidth_gib_s == 0.0


class TestBankParallelismAblation:
    """§4.1: restricting a workload to few banks costs real time."""

    def test_restricted_mapping_decode(self):
        restricted = RestrictedInterleaveMapping.first_n_banks(GEOM, 2)
        banks = {restricted.decode(i * 64).socket_bank_index(GEOM) for i in range(8)}
        assert banks == {0, 1}

    def test_restricted_mapping_bounds(self):
        restricted = RestrictedInterleaveMapping.first_n_banks(GEOM, 1)
        with pytest.raises(MappingError):
            restricted.decode(restricted.capacity)

    def test_restricted_rejects_bad_banks(self):
        with pytest.raises(MappingError):
            RestrictedInterleaveMapping(GEOM, ())
        with pytest.raises(MappingError):
            RestrictedInterleaveMapping(GEOM, (0, 0))
        with pytest.raises(MappingError):
            RestrictedInterleaveMapping(GEOM, (GEOM.banks_per_socket,))

    def test_fewer_banks_is_slower(self):
        """The quantitative heart of §4.1: the same random-ish trace is
        substantially slower on 1 bank than on all banks."""
        full = MemoryController(MAPPING)
        one = MemoryController(RestrictedInterleaveMapping.first_n_banks(GEOM, 1))
        # Random-stride reads within a small footprint.
        import random

        rng = random.Random(0)
        addrs = [rng.randrange(0, 2**16) * 64 % (GEOM.bank_bytes // 2) for _ in range(2000)]
        trace = [MemoryAccess(a) for a in addrs]
        t_full = full.run_trace(trace).total_time_ns
        t_one = one.run_trace(trace).total_time_ns
        assert t_one > 1.18 * t_full  # >= 18 % worse (paper cites [143])

    def test_subarray_row_position_does_not_matter(self):
        """§7.4: timing is independent of which subarray rows live in."""
        mc = MemoryController(MAPPING)
        low = mc.run_trace(seq_trace(512, base=0))
        # Same pattern, different subarray group (different rows).
        high = mc.run_trace(
            seq_trace(512, base=GEOM.subarray_group_bytes)
        )
        assert low.total_time_ns == pytest.approx(high.total_time_ns)
