"""``repro.obs`` — structured tracing and metrics for the simulator.

One process-wide switch, one tracer, one metrics registry.  The
contract with the hot paths (``repro.dram``, ``repro.engine.vector``,
``repro.memctrl``, ``repro.hv``, ``repro.faults``, ``repro.core``) is:

.. code-block:: python

    from repro import obs
    ...
    if obs.ENABLED:                     # one module-attribute read
        obs.emit(FlipEvent(...))        # construct only when observing

``ENABLED`` is ``False`` by default and instrumentation sites check it
*before* constructing any event record, so disabled observability costs
one branch per site — the perf guard in ``benchmarks/bench_engine.py``
holds this under 2 % on the activation hot path, and
``tests/test_obs.py`` asserts the disabled path allocates nothing.

Every emitted event lands in the ring-buffered :class:`Tracer` and is
folded into the :class:`MetricsRegistry`, so metrics are exactly the
aggregation of the trace.  Exporters (JSONL, Chrome trace format, plain
text) live in :mod:`repro.obs.export`.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.events import (  # noqa: F401  (public re-exports)
    ActBatchEvent,
    AdmissionEvent,
    AuditEvent,
    BakeoffEvent,
    ChaosEvent,
    EccWordEvent,
    EVENT_TYPES,
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
from repro.obs.metrics import (  # noqa: F401
    COUNT_EDGES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SIM_SECONDS_EDGES,
    WALL_NS_EDGES,
)
from repro.obs.tracer import DEFAULT_CAPACITY, NULL_SPAN, NullSpan, Span, Tracer

#: Master fast-path guard.  Instrumentation sites read this module
#: attribute and skip all record construction while it is ``False``.
#: Mutate it only through :func:`enable` / :func:`disable`.
ENABLED: bool = False

#: The process-wide metrics registry.  Always constructed (it is cheap
#: and lets tests poke at it), only *fed* while observability is on.
METRICS: MetricsRegistry = MetricsRegistry()

_TRACER: Optional[Tracer] = None


def enable(*, capacity: int = DEFAULT_CAPACITY, reset: bool = False) -> Tracer:
    """Turn observability on; returns the process tracer.

    Idempotent: re-enabling keeps the existing tracer (and its buffered
    events) unless ``reset`` asks for a clean slate.  ``capacity`` only
    applies when a new tracer is created.
    """
    global ENABLED, _TRACER
    if _TRACER is None:
        _TRACER = Tracer(capacity=capacity)
    elif reset:
        _TRACER.clear()
    if reset:
        METRICS.reset()
    ENABLED = True
    return _TRACER


def disable(*, reset: bool = False) -> None:
    """Turn observability off (buffered events survive unless *reset*)."""
    global ENABLED, _TRACER
    ENABLED = False
    if reset:
        if _TRACER is not None:
            _TRACER.clear()
        _TRACER = None
        METRICS.reset()


def tracer() -> Optional[Tracer]:
    """The process tracer, or ``None`` while tracing has never been on."""
    return _TRACER


def emit(event: TraceEvent) -> None:
    """Record one event and fold it into the metrics registry.

    Callers are expected to have checked :data:`ENABLED` already (that
    is the zero-cost contract); calling while disabled is still safe
    and simply drops the event.
    """
    if not ENABLED or _TRACER is None:
        return
    _TRACER.record(event)
    METRICS.fold_event(event)


def span(name: str, *, sim_when: Optional[float] = None):
    """Wall-clock-timed phase: ``with obs.span("eval.fig5"): ...``.

    Returns a no-op context manager while disabled, so call sites need
    no guard of their own (spans sit on cold paths; the hot paths use
    the ``ENABLED`` check directly).
    """
    if not ENABLED or _TRACER is None:
        return NULL_SPAN
    return Span(name, _TRACER, sim_when=sim_when)


def metrics_snapshot() -> dict:
    """Plain-data snapshot of every metric (embeddable in reports)."""
    return METRICS.snapshot()


def render_metrics() -> str:
    """Plain-text dump of the current metrics (the ``--metrics`` output)."""
    return METRICS.render_text()
