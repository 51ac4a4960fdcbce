"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The registry is deliberately tiny and dependency-free (no Prometheus
client): the simulator needs *deterministic, inspectable* numbers it can
embed next to Table 3 / Figure 5 outputs, not a scrape endpoint.  All
three instrument kinds are get-or-create by name so instrumentation
sites stay one-liners, and :meth:`MetricsRegistry.fold_event` derives
the standard counters/histograms from the trace-event stream so metrics
and traces can never disagree about what happened.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.obs.events import (
    ActBatchEvent,
    AdmissionEvent,
    AuditEvent,
    BakeoffEvent,
    ChaosEvent,
    EccWordEvent,
    FaultInjectionEvent,
    FlipEvent,
    HealthTransitionEvent,
    MceEvent,
    MemTraceEvent,
    PlacementEvent,
    RefreshWindowEvent,
    RemapEvent,
    RemediationEvent,
    ServeRequestEvent,
    SpanEvent,
    TraceEvent,
    TrrRefEvent,
    TrrSampleEvent,
    VmMigrationEvent,
)


class MetricsError(ReproError):
    """Invalid metric construction or misuse."""


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A value that can move both ways (set-to-latest semantics)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float) -> None:
        self.value += amount


#: Default bucket edges for simulated-time histograms (seconds).
SIM_SECONDS_EDGES: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)
#: Default bucket edges for wall-clock span durations (nanoseconds).
WALL_NS_EDGES: Tuple[float, ...] = (
    1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
)
#: Default bucket edges for small integer sizes (batch lengths, counts).
COUNT_EDGES: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096)


class Histogram:
    """Fixed-bucket histogram: cumulative-style counts plus sum/min/max.

    ``edges`` are the inclusive upper bounds of each finite bucket; one
    implicit ``+Inf`` bucket catches the overflow.  Edges are fixed at
    construction (no dynamic rebinning) so two runs of the same scenario
    always land observations in the same buckets.
    """

    __slots__ = ("name", "edges", "buckets", "count", "total", "min", "max")

    def __init__(self, name: str, edges: Sequence[float]) -> None:
        if not edges:
            raise MetricsError(f"histogram {name!r} needs at least one edge")
        as_floats = [float(e) for e in edges]
        if sorted(as_floats) != as_floats or len(set(as_floats)) != len(as_floats):
            raise MetricsError(
                f"histogram {name!r} edges must be strictly increasing: {edges}"
            )
        self.name = name
        self.edges: Tuple[float, ...] = tuple(as_floats)
        self.buckets: List[int] = [0] * (len(as_floats) + 1)  # last = +Inf
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation into its (low, high] bucket."""
        self.buckets[bisect.bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def bucket_bounds(self) -> List[Tuple[float, float]]:
        """(low, high] bounds per bucket; the last high is +Inf."""
        bounds: List[Tuple[float, float]] = []
        low = float("-inf")
        for edge in self.edges:
            bounds.append((low, edge))
            low = edge
        bounds.append((low, float("inf")))
        return bounds


class MetricsRegistry:
    """Get-or-create home for every metric in the process."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- get-or-create ---------------------------------------------------

    def counter(self, name: str) -> Counter:
        got = self._counters.get(name)
        if got is None:
            got = self._counters[name] = Counter(name)
        return got

    def gauge(self, name: str) -> Gauge:
        got = self._gauges.get(name)
        if got is None:
            got = self._gauges[name] = Gauge(name)
        return got

    def histogram(
        self, name: str, edges: Sequence[float] = COUNT_EDGES
    ) -> Histogram:
        """Get-or-create a histogram (*edges* only bind on creation)."""
        got = self._histograms.get(name)
        if got is None:
            got = self._histograms[name] = Histogram(name, edges)
        return got

    def reset(self) -> None:
        """Drop every metric (between CLI runs / tests)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # -- event folding ---------------------------------------------------

    def fold_event(self, event: TraceEvent) -> None:
        """Derive the standard metrics from one trace event.

        Called by :func:`repro.obs.emit` for every recorded event, so
        counters/histograms are exactly the aggregation of the trace.
        """
        if type(event) is FlipEvent:
            self.counter("dram.flips").inc()
        elif type(event) is ActBatchEvent:
            self.counter("dram.act_batches").inc()
            self.counter("dram.batched_acts").inc(event.rows)
            self.histogram("dram.act_batch_rows", COUNT_EDGES).observe(event.rows)
        elif type(event) is TrrSampleEvent:
            self.counter("trr.samples").inc()
        elif type(event) is TrrRefEvent:
            self.counter("trr.refs").inc()
            self.counter("trr.victim_refreshes").inc(event.victims)
        elif type(event) is RefreshWindowEvent:
            self.counter("dram.refresh_windows").inc()
        elif type(event) is EccWordEvent:
            self.counter(f"ecc.{event.outcome}").inc()
        elif type(event) is RemapEvent:
            self.counter("hv.remaps").inc()
            self.counter("hv.remapped_bytes").inc(event.size)
        elif type(event) is HealthTransitionEvent:
            self.counter(f"health.to_{event.new}").inc()
        elif type(event) is FaultInjectionEvent:
            self.counter(f"faults.{event.action}").inc()
        elif type(event) is MceEvent:
            self.counter(f"mce.{event.outcome}").inc()
        elif type(event) is RemediationEvent:
            self.counter("remediation.row_groups").inc()
            self.counter("remediation.migrated_blocks").inc(event.migrated)
            self.counter("remediation.deferred_blocks").inc(event.deferred)
            self.counter("remediation.offlined_bytes").inc(event.offlined_bytes)
        elif type(event) is MemTraceEvent:
            self.counter("memctrl.traces").inc()
            self.counter("memctrl.accesses").inc(event.accesses)
            self.counter("memctrl.row_hits").inc(event.row_hits)
            self.counter("memctrl.row_misses").inc(event.row_misses)
        elif type(event) is PlacementEvent:
            self.counter("fleet.placements").inc()
            self.counter("fleet.placed_bytes").inc(event.bytes)
            self.histogram("fleet.placement_nodes", COUNT_EDGES).observe(
                event.node_count
            )
        elif type(event) is AdmissionEvent:
            self.counter(f"fleet.admission.{event.outcome}").inc()
            if event.reason:
                self.counter(f"fleet.rejected.{event.reason}").inc()
            self.histogram("fleet.admission_attempts", COUNT_EDGES).observe(
                event.attempts
            )
        elif type(event) is VmMigrationEvent:
            self.counter("fleet.migrations").inc()
            self.counter("fleet.migrated_bytes").inc(event.bytes)
        elif type(event) is ChaosEvent:
            self.counter(f"chaos.{event.chaos}").inc()
        elif type(event) is AuditEvent:
            self.counter("audit.audits").inc()
            self.counter("audit.violations").inc(event.violations)
        elif type(event) is BakeoffEvent:
            self.counter("bakeoff.campaigns").inc()
            m = event.mitigation
            self.gauge(f"bakeoff.{m}.containment_rate").set(event.containment_rate)
            self.gauge(f"bakeoff.{m}.loss_fraction").set(event.loss_fraction)
            self.gauge(f"bakeoff.{m}.refreshes_per_kact").set(
                event.refreshes_per_kact
            )
        elif type(event) is SpanEvent:
            self.histogram(f"span.{event.name}.wall_ns", WALL_NS_EDGES).observe(
                event.wall_ns
            )
        elif type(event) is ServeRequestEvent:
            self.counter("serve.requests").inc()
            self.counter(f"serve.ops.{event.op}").inc()
            if event.outcome != "ok":
                self.counter(f"serve.errors.{event.outcome}").inc()
            if event.outcome in ("busy", "capacity"):
                self.counter("serve.rejections").inc()
                if event.reason:
                    self.counter(f"serve.rejections.{event.reason}").inc()
            self.histogram("serve.request_wall_ns", WALL_NS_EDGES).observe(
                event.wall_ns
            )

    # -- export ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Point-in-time plain-data copy of every metric."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: {
                    "edges": list(h.edges),
                    "buckets": list(h.buckets),
                    "count": h.count,
                    "sum": h.total,
                    "min": h.min,
                    "max": h.max,
                }
                for n, h in sorted(self._histograms.items())
            },
        }

    def render_text(self, snapshot: Optional[Dict[str, Any]] = None) -> str:
        """Plain-text metrics dump (the ``--metrics`` CLI output)."""
        snap = snapshot if snapshot is not None else self.snapshot()
        lines: List[str] = ["# metrics"]
        for name, value in snap["counters"].items():
            lines.append(f"counter {name} {_fmt(value)}")
        for name, value in snap["gauges"].items():
            lines.append(f"gauge {name} {_fmt(value)}")
        for name, hist in snap["histograms"].items():
            lines.append(
                f"histogram {name} count={hist['count']} sum={_fmt(hist['sum'])}"
                f" min={_fmt(hist['min'])} max={_fmt(hist['max'])}"
            )
            for edge, bucket in zip(
                [*hist["edges"], float("inf")], hist["buckets"]
            ):
                if bucket:
                    lines.append(f"  le={_fmt(edge)} {bucket}")
        return "\n".join(lines)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"
