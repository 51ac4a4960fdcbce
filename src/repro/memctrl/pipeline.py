"""Vectorized controller pipeline (numpy), bit-identical to the scalar loop.

The scalar reference (:meth:`~repro.memctrl.controller.MemoryController.
_run_scalar`, in order or FR-FCFS) folds max-plus recurrences access by
access.  Because every operand is dyadic — a multiple of the
:data:`~repro.memctrl.timings.TICKS_PER_NS` grid, far below the 2**53
exactness horizon — float64 arithmetic on them never rounds, addition is
associative, and each recurrence has a *closed form* this module
evaluates with numpy:

- arrival clock: ``A = cumsum(quantized gaps)``;
- bus chain ``u_j = max(s_j, u_{j-1} + t_burst)`` per channel:
  ``u_j = j*tb + runmax(s_m - m*tb)``;
- bank chain ``b_j = max(u_j, b_{j-1} + R_{j-1})`` per bank:
  ``b_j = c_j + runmax(u_m - c_m)`` with ``c = exclusive-cumsum(R)``;
- MLP throttle ``now_i = max(now_{i-1} + g_i, P_i)`` with
  ``P_i = max(D0[: i-K+1])``: ``now = A + max(0, runmax(P - A))``;
- refresh blackouts are a pure elementwise function of time.

Row-hit screening is one stable sort by bank (an access hits iff the
previous access to the same bank targeted the same row), and FR-FCFS
candidate selection is a static window permutation (same-(bank,row)
requests coalesce to their group's first position inside each window
block) — both timing-independent.  The per-bank/per-channel scans run as
*flat* segmented scans (one ``maximum.accumulate`` over offset-shifted
values, one ``cumsum`` rebased per segment), so no Python-level loop
scales with the number of banks.

Equality with the scalar fold is exact, not approximate; the
differential tests enforce it per-field on the full TraceResult.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import MemCtrlError
from repro.memctrl.timings import TICKS_PER_NS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.memctrl.controller import MemoryAccess, MemoryController, TraceResult

#: numpy arrays of decoded (socket, socket_bank, channel, row) columns.
DecodeArrays = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@dataclass
class AccessBatch:
    """Structure-of-arrays trace: the fast-path twin of a
    ``list[MemoryAccess]`` (same fields, column layout)."""

    hpa: np.ndarray  # int64
    write: np.ndarray  # bool
    cpu_gap_ns: np.ndarray  # float64
    home_socket: np.ndarray  # int64
    tag: np.ndarray  # int64

    def __len__(self) -> int:
        return int(self.hpa.shape[0])

    def __post_init__(self) -> None:
        n = self.hpa.shape[0]
        for name in ("write", "cpu_gap_ns", "home_socket", "tag"):
            if getattr(self, name).shape[0] != n:
                raise MemCtrlError(f"AccessBatch column {name} length mismatch")

    @classmethod
    def from_accesses(cls, accesses: "list[MemoryAccess]") -> "AccessBatch":
        from repro.memctrl.controller import AccessKind

        n = len(accesses)
        return cls(
            hpa=np.fromiter((a.hpa for a in accesses), dtype=np.int64, count=n),
            write=np.fromiter(
                (a.kind is AccessKind.WRITE for a in accesses), dtype=bool, count=n
            ),
            cpu_gap_ns=np.fromiter(
                (a.cpu_gap_ns for a in accesses), dtype=np.float64, count=n
            ),
            home_socket=np.fromiter(
                (a.home_socket for a in accesses), dtype=np.int64, count=n
            ),
            tag=np.fromiter((a.tag for a in accesses), dtype=np.int64, count=n),
        )

    def to_accesses(self) -> "list[MemoryAccess]":
        """Expand back to :class:`MemoryAccess` objects (the scalar
        backends' input form); exact inverse of :meth:`from_accesses`."""
        from repro.memctrl.controller import AccessKind, MemoryAccess

        kinds = np.where(self.write, AccessKind.WRITE, AccessKind.READ)
        return [
            MemoryAccess(
                hpa=int(h),
                kind=k,
                cpu_gap_ns=float(g),
                home_socket=int(s),
                tag=int(t),
            )
            for h, k, g, s, t in zip(
                self.hpa.tolist(),
                kinds.tolist(),
                self.cpu_gap_ns.tolist(),
                self.home_socket.tolist(),
                self.tag.tolist(),
            )
        ]


# ----------------------------------------------------------------------
# decode


def _decode_arrays(controller: "MemoryController", hpa: np.ndarray) -> DecodeArrays:
    """Bulk-decode to (socket, socket_bank, channel, row) int64 columns.

    Uses the mapping's vectorized decoder; mappings without one (the
    restricted-interleave ablation mapping) and the reference path
    (``_decode_flat`` set to None) loop over the controller's scalar
    decode — still correct, just not fast."""
    if controller._decode_flat is not None:
        socket, sbank, chan, row, _col = controller.mapping.decode_media_batch(hpa)
        return socket, sbank, chan, row
    arr = np.asarray(controller._decode_all(hpa.tolist()), dtype=np.int64)
    arr = arr.reshape(len(hpa), 5)
    return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]


# ----------------------------------------------------------------------
# segmented max-plus chains

#: (order, starts, ends, segment index per sorted pos, local pos in segment)
Segments = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _segments(gids: np.ndarray) -> Segments:
    """Stable grouping layout over sorted gids (see :data:`Segments`)."""
    # Bank/channel gids are tiny (tens of values); a 16-bit radix sort
    # is ~8x faster than the int64 sort and orders identically.
    if gids.size and 0 <= int(gids.min()) and int(gids.max()) < 2**16:
        order = np.argsort(gids.astype(np.uint16), kind="stable")
    else:
        order = np.argsort(gids, kind="stable")
    sorted_g = gids[order]
    n = sorted_g.shape[0]
    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    np.not_equal(sorted_g[1:], sorted_g[:-1], out=is_start[1:])
    starts = np.flatnonzero(is_start)
    ends = np.append(starts[1:], n)
    lengths = ends - starts
    seg_of = np.repeat(np.arange(starts.shape[0], dtype=np.int64), lengths)
    local = np.arange(n, dtype=np.int64) - np.repeat(starts, lengths)
    return order, starts, ends, seg_of, local


def _segmented_runmax(
    v: np.ndarray, seg_of: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Running maximum within each segment of the segment-sorted *v*.

    Uses one flat ``maximum.accumulate`` over ``v`` shifted by a
    per-segment power-of-two offset larger than v's spread, so no
    segment's values can reach into the next — then shifts back.  Every
    add/subtract is exact (dyadic operands below the tick-grid horizon),
    so the result equals the per-segment scan bit for bit; inputs too
    large for that guarantee take the per-segment loop instead."""
    nseg = starts.shape[0]
    if nseg <= 1:
        return np.maximum.accumulate(v)
    vmin = float(v.min())
    spread = float(v.max()) - vmin
    big = 2.0 ** math.ceil(math.log2(spread + 1.0))
    if (nseg + 1) * big * TICKS_PER_NS < 2.0**53:
        offset = seg_of * big
        return np.maximum.accumulate((v - vmin) + offset) - offset + vmin
    out = np.empty_like(v)
    for b, e in zip(starts.tolist(), ends.tolist()):
        np.maximum.accumulate(v[b:e], out=out[b:e])
    return out


def _bus_chains(s: np.ndarray, segs: Segments, t_burst: float) -> np.ndarray:
    """Per-channel ``u_j = max(s_j, u_{j-1} + t_burst)`` via closed form."""
    order, starts, ends, seg_of, local = segs
    ramp = local * t_burst
    out = np.empty_like(s)
    out[order] = ramp + _segmented_runmax(s[order] - ramp, seg_of, starts, ends)
    return out


def _bank_chains(u: np.ndarray, hold: np.ndarray, segs: Segments) -> np.ndarray:
    """Per-bank ``b_j = max(u_j, b_{j-1} + R_{j-1})`` via closed form."""
    order, starts, ends, seg_of, local = segs
    h = hold[order]
    cs = np.cumsum(h)
    if cs.shape[0] and cs[-1] * TICKS_PER_NS >= 2.0**52:
        # Prefix sums beyond the exactness horizon: per-segment loop.
        out = np.empty_like(u)
        for b, e in zip(starts.tolist(), ends.tolist()):
            idx = order[b:e]
            c = np.empty(e - b, dtype=np.float64)
            c[0] = 0.0
            np.cumsum(hold[idx][:-1], out=c[1:])
            out[idx] = c + np.maximum.accumulate(u[idx] - c)
        return out
    # Exclusive per-segment prefix sums from one flat cumsum: subtract
    # each segment's pre-start total (exact differences of exact sums).
    excl = np.empty_like(cs)
    excl[0] = 0.0
    excl[1:] = cs[:-1]
    c_flat = excl - np.repeat(excl[starts], ends - starts)
    out = np.empty_like(u)
    out[order] = c_flat + _segmented_runmax(
        u[order] - c_flat, seg_of, starts, ends
    )
    return out


# ----------------------------------------------------------------------
# FR-FCFS static window permutation


def frfcfs_permutation(
    bank_gid: np.ndarray, row: np.ndarray, window: int
) -> np.ndarray:
    """Issue order for the static FR-FCFS rule.

    Within each consecutive block of *window* requests (arrival order),
    requests to the same (bank, row) issue back-to-back at their group's
    first-arrival position; groups keep first-come order and blocks do
    not interleave.  ``window == 1`` is the identity."""
    n = bank_gid.shape[0]
    pos = np.arange(n, dtype=np.int64)
    if window == 1 or n <= 1:
        return pos
    block = pos // window
    key = bank_gid * (int(row.max()) + 1) + row
    by_group = np.lexsort((pos, key, block))
    bs, ks, ps = block[by_group], key[by_group], pos[by_group]
    run_start = np.empty(n, dtype=bool)
    run_start[0] = True
    run_start[1:] = (bs[1:] != bs[:-1]) | (ks[1:] != ks[:-1])
    start_of_run = np.maximum.accumulate(np.where(run_start, pos, 0))
    first_pos = np.empty(n, dtype=np.int64)
    first_pos[by_group] = ps[start_of_run]
    return np.lexsort((pos, first_pos))


# ----------------------------------------------------------------------
# the pipeline


def run_pipeline(
    controller: "MemoryController",
    batch: AccessBatch,
    *,
    window: int | None,
) -> "TraceResult":
    """Replay *batch* through the controller model with numpy.

    ``window=None`` runs the in-order MLP-throttled model
    (:class:`MemoryController` semantics); an integer runs the FR-FCFS
    static-window model (latency measured from arrival, no throttle).
    Bit-identical to the corresponding scalar loop (see module docs).
    """
    from repro.memctrl.controller import TraceResult

    t = controller.timings
    n = len(batch)
    socket, sbank, chan, row = _decode_arrays(controller, batch.hpa)

    banks_per_socket = controller.geom.banks_per_socket
    bank_gid = socket * banks_per_socket + sbank
    chan_gid = socket * (int(chan.max()) + 1) + chan if n else chan

    arrival = np.cumsum(np.floor(batch.cpu_gap_ns * TICKS_PER_NS) / TICKS_PER_NS)
    remote = socket != batch.home_socket
    penalty = np.where(remote, t.t_remote, 0.0)
    write = batch.write
    tag = batch.tag

    if window is not None:
        perm = frfcfs_permutation(bank_gid, row, window)
        bank_gid, chan_gid, row = bank_gid[perm], chan_gid[perm], row[perm]
        arrival, penalty, remote = arrival[perm], penalty[perm], remote[perm]
        write, tag = write[perm], tag[perm]

    bank_segs = _segments(bank_gid)
    chan_segs = _segments(chan_gid)
    # Columns are dropped once dead (here and below): a trace holds
    # dozens of n-long columns, and a smaller live set lets the heap
    # reuse freed ones instead of growing into fresh, page-faulting
    # memory on every run.
    del sbank, chan

    # Pass 1: timing-free row-hit classification along each bank's
    # access sequence (bank_segs's stable order IS trace order per bank).
    order = bank_segs[0]
    b_s, r_s = bank_gid[order], row[order]
    same_bank_prev = np.empty(n, dtype=bool)
    same_bank_prev[0] = False
    np.equal(b_s[1:], b_s[:-1], out=same_bank_prev[1:])
    first_touch_s = ~same_bank_prev
    first_touch = np.empty(n, dtype=bool)
    first_touch[order] = first_touch_s
    if controller.page_policy == "closed":
        hit = np.zeros(n, dtype=bool)
        latency_ns = np.full(n, t.idle_latency)
        hold = np.full(n, t.bank_hold)
    else:
        hit_s = np.empty(n, dtype=bool)
        hit_s[0] = False
        hit_s[1:] = same_bank_prev[1:] & (r_s[1:] == r_s[:-1])
        hit = np.empty(n, dtype=bool)
        hit[order] = hit_s
        latency_ns = np.where(
            hit, t.hit_latency, np.where(first_touch, t.idle_latency, t.miss_latency)
        )
        hold = np.where(hit, t.t_burst, t.bank_hold)
        del hit_s
    del b_s, r_s, same_bank_prev, first_touch_s, first_touch, bank_gid, row

    def refresh_shift(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        k = np.floor(s / t.t_refi)
        k_start = k * t.t_refi
        stalled = s - k_start < t.t_rfc
        return np.where(stalled, k_start + t.t_rfc, s), stalled, k

    if window is None:
        # Pass 2: unthrottled completion estimate D0.
        shifted, _, _ = refresh_shift(arrival + penalty)
        begin_est = _bank_chains(_bus_chains(shifted, chan_segs, t.t_burst), hold, bank_segs)
        d0 = begin_est + latency_ns
        # Pass 3a: the MLP throttle (K-delayed running max of D0).
        k_lag = controller.max_outstanding
        throttle = np.full(n, -np.inf)
        if n > k_lag:
            throttle[k_lag:] = np.maximum.accumulate(d0)[:-k_lag]
        now = arrival + np.maximum(0.0, np.maximum.accumulate(throttle - arrival))
        measured_from = now
        del shifted, begin_est, d0, throttle
    else:
        # FR-FCFS: no MLP throttle; the issue clock just never rewinds.
        now = np.maximum.accumulate(arrival)
        measured_from = arrival

    # Pass 3b: final service chains.
    shifted, stalled, k_win = refresh_shift(now + penalty)
    begin = _bank_chains(_bus_chains(shifted, chan_segs, t.t_burst), hold, bank_segs)
    done = begin + latency_ns
    del begin, shifted
    latency = done - measured_from

    result = TraceResult()
    result.accesses = n
    result.writes = int(np.count_nonzero(write))
    result.reads = n - result.writes
    result.row_hits = int(np.count_nonzero(hit))
    result.row_misses = n - result.row_hits
    result.remote_accesses = int(np.count_nonzero(remote))
    result.total_time_ns = float(done.max())
    result.total_latency_ns = float(np.sum(latency))
    result.bytes_transferred = n * controller.LINE_BYTES
    result.banks_touched = int(bank_segs[1].shape[0])
    if np.any(stalled):
        windows = chan_gid[stalled] * np.int64(2**32) + k_win[stalled].astype(np.int64)
        result.refreshes = int(np.unique(windows).shape[0])
    if int(tag.min()) == int(tag.max()):
        # Single-tenant trace (the common run_in_vm case): its per-tag
        # total IS the total (same exact sum), no grouping sort needed.
        result.per_tag[int(tag[0])] = (n, result.total_latency_ns)
    else:
        tags, inverse = np.unique(tag, return_inverse=True)
        counts = np.bincount(inverse)
        totals = np.bincount(inverse, weights=latency)
        for tg, cnt, tot in zip(tags.tolist(), counts.tolist(), totals.tolist()):
            result.per_tag[tg] = (cnt, tot)
    return result
