"""The memory controller: traces in, time out (paper §2.4, §7.2-§7.3).

:class:`MemoryController` replays a memory-access trace against per-bank
row-buffer state and per-channel bus/refresh state, producing execution
time, average latency, bandwidth, and hit-rate statistics.  The model
captures exactly the effects the paper's performance arguments rest on:

- **Bank-level parallelism**: independent banks overlap; a trace confined
  to few banks serializes (the §4.1 ">= 18 %" motivation for subarray
  groups spanning every bank).
- **Row-buffer locality**: sequential traffic hits open rows; random
  traffic pays conflict latency.
- **NUMA distance**: accesses from a vCPU's socket to the other socket
  pay ``t_remote`` (why Siloz maps logical nodes to physical nodes,
  §5.2).
- **Subarray-size independence**: nothing in the timing path depends on
  the row or subarray index (§7.4's expectation of no trend).

The replay is structured as three feed-forward passes so that the
vectorized backend (:mod:`repro.memctrl.pipeline`) can compute it with
numpy closed forms while staying bit-identical to this scalar loop:

1. **Classify** — row-buffer hit/idle/conflict per access.  Under the
   fixed-grid refresh model this depends only on the per-bank access
   *sequence*, never on timing.
2. **Estimate** — an unthrottled service-completion estimate ``D0`` per
   access: arrival + NUMA + refresh blackout + bus chain + bank chain.
3. **Issue & serve** — the issue clock advances by CPU gaps but may not
   run more than ``max_outstanding`` requests ahead of completed
   service: ``now_i = max(now_{i-1} + gap_i, max_{j<=i-K} D0_j)``
   (the core's MLP backpressure).  The final service chains (refresh,
   bus, bank) then run against the throttled issue times.

Every quantity lives on the :data:`~repro.memctrl.timings.TICKS_PER_NS`
dyadic grid, so all float arithmetic here is exact — the property that
makes scalar fold and vectorized closed form agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Iterable, Protocol

from repro import obs
from repro.dram.geometry import DRAMGeometry
from repro.dram.media import MediaAddress
from repro.engine.backend import SimBackend
from repro.errors import MemCtrlError
from repro.memctrl.scheduler import ChannelState
from repro.memctrl.timings import DDR4Timings, quantize_ns

if TYPE_CHECKING:  # pragma: no cover - typing-only import (numpy layer)
    from repro.memctrl.pipeline import AccessBatch


class AccessKind(Enum):
    """Read or write (writes matter for the MLC ratio workloads)."""
    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class MemoryAccess:
    """One cache-line-sized memory request.

    ``cpu_gap_ns`` is the CPU "think time" since the previous request —
    the compute/memory balance knob the workload generators use.
    ``home_socket`` is the socket of the issuing vCPU, for NUMA distance.
    ``tag`` attributes the access to a requester (VM id) when several
    streams share one controller run (interference studies).
    """

    hpa: int
    kind: AccessKind = AccessKind.READ
    cpu_gap_ns: float = 0.0
    home_socket: int = 0
    tag: int = 0


#: One decoded address: ``(socket, socket_bank, channel, row, col)``.
DecodedAddress = tuple[int, int, int, int, int]


class DecodesToMedia(Protocol):
    """Anything that can translate an HPA to a media address."""

    geom: DRAMGeometry

    def decode(self, hpa: int) -> MediaAddress: ...


@dataclass
class TraceResult:
    """Aggregates from replaying one trace."""

    accesses: int = 0
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    remote_accesses: int = 0
    total_time_ns: float = 0.0
    total_latency_ns: float = 0.0
    bytes_transferred: int = 0
    banks_touched: int = 0
    refreshes: int = 0
    #: tag -> (accesses, cumulative latency ns) for shared-run studies.
    per_tag: dict[int, tuple[int, float]] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.row_hits / self.accesses

    @property
    def avg_latency_ns(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.total_latency_ns / self.accesses

    @property
    def execution_seconds(self) -> float:
        return self.total_time_ns * 1e-9

    @property
    def bandwidth_gib_s(self) -> float:
        if self.total_time_ns == 0:
            return 0.0
        return (self.bytes_transferred / 2**30) / (self.total_time_ns * 1e-9)


class MemoryController:
    """Replays traces through the bank/channel timing model."""

    LINE_BYTES = 64
    #: Reorder window; ``None`` issues in arrival order under the MLP
    #: throttle (:class:`~repro.memctrl.frfcfs.FrFcfsController` sets it).
    window: int | None = None

    def __init__(
        self,
        mapping: DecodesToMedia,
        timings: DDR4Timings | None = None,
        *,
        max_outstanding: int = 10,
        page_policy: str = "open",
        backend: SimBackend | str = SimBackend.SCALAR,
    ):
        if max_outstanding < 1:
            raise MemCtrlError("max_outstanding must be >= 1")
        if page_policy not in ("open", "closed"):
            raise MemCtrlError(f"unknown page policy {page_policy!r}")
        self.mapping = mapping
        self.geom = mapping.geom
        # Fast decode (repro.engine): SkylakeMapping exposes an LRU-cached
        # flat decoder and its array twin; other DecodesToMedia
        # implementations (e.g. the restricted-interleave mapping in
        # tests) go through the MediaAddress adaptor ``_decode_media``.
        self._decode_flat: Callable[[int], DecodedAddress] | None = getattr(
            mapping, "decode_flat", None
        )
        self.timings = timings or DDR4Timings.ddr4_2933()
        self.max_outstanding = max_outstanding
        #: "open" keeps rows in the buffer (hits possible, conflicts pay
        #: tRP); "closed" auto-precharges after every access (no hits,
        #: no conflicts — better for random traffic, worse for streams).
        self.page_policy = page_policy
        #: SCALAR decodes per access and runs the timing loop;
        #: VECTORIZED runs the whole pipeline in numpy.  Both are
        #: bit-identical (tests/test_differential).
        self.backend = SimBackend.parse(backend)

    # ------------------------------------------------------------------
    # public entry points

    def run_trace(self, trace: Iterable[MemoryAccess]) -> TraceResult:
        """Replay *trace* in order; returns aggregate statistics.

        The issuer models a core with ``max_outstanding`` in-flight
        requests (its MLP): issue may not run further ahead than the
        completion estimate of the request ``max_outstanding`` back, so
        memory backpressure reaches the CPU — that is how bank
        serialization turns into execution time.  State (row buffers,
        bus occupancy) is fresh per call, so results are deterministic
        functions of the trace.
        """
        accesses = trace if isinstance(trace, list) else list(trace)
        if not accesses:
            raise MemCtrlError("empty trace")
        with obs.span("memctrl.run_trace"):
            if self.backend is SimBackend.VECTORIZED:
                from repro.memctrl.pipeline import AccessBatch

                return self._finish(self._run_vectorized(AccessBatch.from_accesses(accesses)))
            return self._finish(self._run_scalar(accesses))

    def run_batch(self, batch: "AccessBatch") -> TraceResult:
        """Replay a structure-of-arrays trace (the fast-path entry).

        On the vectorized backend the batch feeds numpy directly; the
        scalar backend expands it to :class:`MemoryAccess` objects and
        takes the scalar loop — same results either way.
        """
        if len(batch) == 0:
            raise MemCtrlError("empty trace")
        with obs.span("memctrl.run_trace"):
            if self.backend is SimBackend.VECTORIZED:
                return self._finish(self._run_vectorized(batch))
            return self._finish(self._run_scalar(batch.to_accesses()))

    # ------------------------------------------------------------------
    # shared helpers

    def _finish(self, result: TraceResult) -> TraceResult:
        if obs.ENABLED:
            obs.emit(
                obs.MemTraceEvent(
                    accesses=result.accesses,
                    row_hits=result.row_hits,
                    row_misses=result.row_misses,
                    remote=result.remote_accesses,
                    total_time_ns=result.total_time_ns,
                    bytes_transferred=result.bytes_transferred,
                )
            )
        return result

    def _decode_all(self, hpas: Iterable[int]) -> list[DecodedAddress]:
        """Decode every HPA to ``(socket, socket_bank, channel, row, col)``.

        Decode is a pure function of the HPA, so hoisting it out of the
        issue loop cannot change results; addresses go through the flat
        LRU or, for mappings without one, the MediaAddress adaptor."""
        decode = self._decode_flat or self._decode_media
        return [decode(hpa) for hpa in hpas]

    def _decode_media(self, hpa: int) -> DecodedAddress:
        """``decode_flat``'s fields through ``mapping.decode``: the one
        MediaAddress adaptor, and the reference path the differential
        tests select by setting ``_decode_flat`` to None."""
        m = self.mapping.decode(hpa)
        return m.socket, m.socket_bank_index(self.geom), m.channel, m.row, m.col

    def _classify(
        self,
        prev_row: dict[tuple[int, int], int],
        bank_key: tuple[int, int],
        row: int,
    ) -> tuple[bool, float, float]:
        """(hit?, service latency L, bank hold R) for the next access.

        Timing-free: depends only on the per-bank row sequence and the
        page policy, which is what lets the vectorized path screen row
        hits with one sorted pass."""
        t = self.timings
        if self.page_policy == "closed":
            # Auto-precharge: every access activates an idle bank.
            prev_row[bank_key] = row
            return False, t.idle_latency, t.bank_hold
        prev = prev_row.get(bank_key)
        prev_row[bank_key] = row
        if prev is None:
            return False, t.idle_latency, t.bank_hold
        if prev == row:
            return True, t.hit_latency, t.t_burst
        return False, t.miss_latency, t.bank_hold

    # ------------------------------------------------------------------
    # scalar reference

    def _run_scalar(self, accesses: list[MemoryAccess]) -> TraceResult:
        """The per-access fold :func:`~repro.memctrl.pipeline.run_pipeline`
        computes in closed form.  ``window is None`` issues in order
        under the MLP throttle and measures latency from issue; an
        integer issues in :meth:`_issue_order` (FR-FCFS) and measures
        from arrival."""
        t = self.timings
        decoded = self._decode_all(a.hpa for a in accesses)
        gaps = [quantize_ns(a.cpu_gap_ns) for a in accesses]
        arrivals = list(accumulate(gaps))
        in_order = self.window is None
        prev_row: dict[tuple[int, int], int] = {}
        # Estimate-pass chains (in order only; discarded counters) and
        # final chains.
        chans_est: dict[tuple[int, int], ChannelState] = {}
        banks_est: dict[tuple[int, int], float] = {}
        chans: dict[tuple[int, int], ChannelState] = {}
        banks_free: dict[tuple[int, int], float] = {}
        result = TraceResult()
        per_tag = result.per_tag
        k_lag = self.max_outstanding
        d0_hist: list[float] = []
        throttle = float("-inf")  # running max of D0 up to i - k_lag
        now = 0.0
        for i in self._issue_order(decoded):
            access = accesses[i]
            socket, socket_bank, channel, row, _col = decoded[i]
            bank_key = (socket, socket_bank)
            chan_key = (socket, channel)
            remote = socket != access.home_socket
            penalty = t.t_remote if remote else 0.0
            hit, latency, hold = self._classify(prev_row, bank_key, row)

            if in_order:
                # Pass 2: unthrottled completion estimate D0.
                chan_est = chans_est.get(chan_key)
                if chan_est is None:
                    chan_est = chans_est[chan_key] = ChannelState(t)
                bus_est = chan_est.claim_bus(chan_est.refresh_adjust(arrivals[i] + penalty))
                begin_est = max(bus_est, banks_est.get(bank_key, 0.0))
                banks_est[bank_key] = begin_est + hold
                d0_hist.append(begin_est + latency)
                # Pass 3: MLP-throttled issue.
                if i >= k_lag and d0_hist[i - k_lag] > throttle:
                    throttle = d0_hist[i - k_lag]
                now = max(now + gaps[i], throttle)
                origin = now
            else:
                # FR-FCFS: no throttle; the issue clock never rewinds.
                now = max(now, arrivals[i])
                origin = arrivals[i]
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
            result.total_latency_ns += done - origin
            count, total = per_tag.get(access.tag, (0, 0.0))
            per_tag[access.tag] = (count + 1, total + (done - origin))
            result.bytes_transferred += self.LINE_BYTES
            if done > result.total_time_ns:
                result.total_time_ns = done

        result.banks_touched = len(prev_row)
        result.refreshes = sum(c.refreshes for c in chans.values())
        return result

    def _issue_order(self, decoded: list[DecodedAddress]) -> list[int]:
        """Arrival order; reordering controllers override it."""
        return list(range(len(decoded)))

    # ------------------------------------------------------------------
    # vectorized fast path

    def _run_vectorized(self, batch: "AccessBatch") -> TraceResult:
        from repro.memctrl import pipeline

        return pipeline.run_pipeline(self, batch, window=self.window)
