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
bit-identical to the scalar loop.  Latency is measured from arrival
(queueing included): the FR-FCFS read queue is fed by a request
firehose, so there is no per-core MLP throttle here.
"""

from __future__ import annotations

from repro.engine.backend import SimBackend
from repro.errors import MemCtrlError
from repro.memctrl.controller import DecodedAddress, DecodesToMedia, MemoryController
from repro.memctrl.timings import DDR4Timings


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
        self.window: int = window

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
