"""FR-FCFS scheduling (paper §2.4's scheduler family).

Real memory controllers reorder requests: *first-ready* (row-buffer
hits) before *first-come first-served* (oldest first).  The base
:class:`~repro.memctrl.controller.MemoryController` issues strictly in
order, which is sufficient for the paper's relative comparisons; this
subclass adds a reorder window so studies of scheduler interaction
(e.g. how much locality the scheduler recovers from interleaved
streams) are possible.  The Siloz-relevant invariant is unchanged:
nothing in scheduling depends on subarray indices.

The reorder rule is a *static window permutation*: within each
consecutive block of ``window`` requests (in arrival order), requests
to the same (bank, row) issue back-to-back at the position where the
group's first request arrived; groups keep first-come order, blocks do
not interleave.  The rule is timing-independent — a pure function of
the decoded trace — which is exactly what lets the vectorized backend
compute the same permutation with a couple of ``lexsort`` calls
(:func:`repro.memctrl.pipeline.frfcfs_permutation`) and stay
bit-identical to this scalar loop.  Latency is measured from arrival
(queueing included): the FR-FCFS read queue is fed by a request
firehose, so there is no per-core MLP throttle here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.backend import SimBackend
from repro.errors import MemCtrlError
from repro.memctrl.controller import (
    AccessKind,
    DecodedAddress,
    DecodesToMedia,
    MemoryAccess,
    MemoryController,
    TraceResult,
)
from repro.memctrl.scheduler import ChannelState
from repro.memctrl.timings import DDR4Timings, quantize_ns

if TYPE_CHECKING:  # pragma: no cover - typing-only import (numpy layer)
    from repro.memctrl.pipeline import AccessBatch


class FrFcfsController(MemoryController):
    """MemoryController with a first-ready / first-come scheduler.

    ``window`` bounds how far ahead of the oldest request the scheduler
    may look (the read-queue depth).
    """

    def __init__(
        self,
        mapping: DecodesToMedia,
        timings: DDR4Timings | None = None,
        *,
        window: int = 16,
        max_outstanding: int = 10,
        backend: SimBackend | str = SimBackend.SCALAR,
    ):
        super().__init__(
            mapping, timings, max_outstanding=max_outstanding, backend=backend
        )
        if window < 1:
            raise MemCtrlError("window must be >= 1")
        self.window = window

    def _issue_order(
        self, decoded: list[DecodedAddress]
    ) -> list[int]:
        """The static window permutation (see module docstring)."""
        order: list[int] = []
        n = len(decoded)
        for base in range(0, n, self.window):
            groups: dict[tuple[tuple[int, int], int], list[int]] = {}
            for i in range(base, min(base + self.window, n)):
                socket, socket_bank, _channel, row, _col = decoded[i]
                groups.setdefault(((socket, socket_bank), row), []).append(i)
            for members in groups.values():
                order.extend(members)
        return order

    def _run_scalar(self, accesses: list[MemoryAccess]) -> TraceResult:
        t = self.timings
        decoded = self._decode_all(a.hpa for a in accesses)
        arrivals: list[float] = []
        arrival = 0.0
        for access in accesses:
            arrival += quantize_ns(access.cpu_gap_ns)
            arrivals.append(arrival)

        prev_row: dict[tuple[int, int], int] = {}
        chans: dict[tuple[int, int], ChannelState] = {}
        banks_free: dict[tuple[int, int], float] = {}
        result = TraceResult()
        per_tag = result.per_tag
        now = 0.0
        for i in self._issue_order(decoded):
            access = accesses[i]
            socket, socket_bank, channel, row, _col = decoded[i]
            bank_key = (socket, socket_bank)
            chan_key = (socket, channel)
            remote = socket != access.home_socket
            penalty = t.t_remote if remote else 0.0
            hit, latency, hold = self._classify(prev_row, bank_key, row)

            now = max(now, arrivals[i])
            chan = chans.get(chan_key)
            if chan is None:
                chan = chans[chan_key] = ChannelState(t)
            bus = chan.claim_bus(chan.refresh_adjust(now + penalty))
            begin = max(bus, banks_free.get(bank_key, 0.0))
            banks_free[bank_key] = begin + hold
            done = begin + latency

            result.accesses += 1
            if access.kind is AccessKind.READ:
                result.reads += 1
            else:
                result.writes += 1
            if hit:
                result.row_hits += 1
            else:
                result.row_misses += 1
            if remote:
                result.remote_accesses += 1
            result.total_latency_ns += done - arrivals[i]
            count, total = per_tag.get(access.tag, (0, 0.0))
            per_tag[access.tag] = (count + 1, total + (done - arrivals[i]))
            result.bytes_transferred += self.LINE_BYTES
            if done > result.total_time_ns:
                result.total_time_ns = done

        result.banks_touched = len(prev_row)
        result.refreshes = sum(c.refreshes for c in chans.values())
        return result

    def _run_vectorized(self, batch: "AccessBatch") -> TraceResult:
        from repro.memctrl import pipeline

        return pipeline.run_pipeline(self, batch, window=self.window)
