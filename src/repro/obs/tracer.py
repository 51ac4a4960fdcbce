"""The process-wide tracer: a ring-buffered sink of typed events.

The ring is a fixed-size list written modulo capacity, so a
long-running simulation keeps the most recent ``capacity`` events at a
constant memory footprint; ``dropped`` counts what the ring overwrote.
``emitted`` counts every event ever recorded (drops included), which
gives tests a cheap "did the hot path construct anything?" probe.

Nothing in this module reads the global enabled flag — the flag lives
in :mod:`repro.obs` and is checked by the *instrumentation sites*
before any event object is constructed, which is what makes disabled
tracing free.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.errors import ReproError
from repro.obs.events import SpanEvent, TraceEvent

#: Default ring capacity: large enough for every event of the seeded CI
#: scenarios, small enough that an accidental always-on tracer cannot
#: exhaust memory.
DEFAULT_CAPACITY = 1 << 16


class TracerError(ReproError):
    """Invalid tracer construction or misuse."""


class Tracer:
    """Ring-buffered event sink with a last-seen simulated clock."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise TracerError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._ring: List[TraceEvent] = []
        self._next = 0  # write index once the ring is full
        self.emitted = 0
        self.dropped = 0
        #: Last simulated clock carried by any event (exporter fallback
        #: for events whose layer cannot see the module clock).
        self.last_clock = 0.0

    def record(self, event: TraceEvent) -> None:
        """Append one event (overwrites the oldest when full)."""
        when = event.when
        if when is not None:
            self.last_clock = when
        self.emitted += 1
        ring = self._ring
        if len(ring) < self.capacity:
            ring.append(event)
        else:
            ring[self._next] = event
            self._next = (self._next + 1) % self.capacity
            self.dropped += 1

    def events(self) -> List[TraceEvent]:
        """Buffered events, oldest first."""
        return self._ring[self._next :] + self._ring[: self._next]

    def clear(self) -> None:
        """Empty the ring and reset the counters."""
        self._ring.clear()
        self._next = 0
        self.emitted = 0
        self.dropped = 0
        self.last_clock = 0.0


class Span:
    """Context manager timing one phase on the wall clock.

    On exit it emits a :class:`SpanEvent` (name + wall nanoseconds) into
    the given tracer; the metrics fold turns those into per-phase
    duration histograms.  ``sim_when`` pins the span to a simulated
    timestamp when the caller knows one.
    """

    __slots__ = ("name", "_tracer", "_sim_when", "_start", "wall_ns")

    def __init__(
        self,
        name: str,
        tracer: Optional[Tracer],
        *,
        sim_when: Optional[float] = None,
    ) -> None:
        self.name = name
        self._tracer = tracer
        self._sim_when = sim_when
        self._start = 0
        self.wall_ns = 0

    def __enter__(self) -> "Span":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.wall_ns = time.perf_counter_ns() - self._start
        if self._tracer is not None:
            from repro import obs  # local import: obs imports this module

            obs.emit(
                SpanEvent(name=self.name, wall_ns=self.wall_ns, when=self._sim_when)
            )


class NullSpan:
    """No-op span handed out when observability is disabled."""

    __slots__ = ()
    name = ""
    wall_ns = 0

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


NULL_SPAN = NullSpan()
