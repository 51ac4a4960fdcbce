"""Shared pieces: statistics, digests, round loops and the metric set
every round-based workload reports."""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from perfbench.layers import install_layers
from perfbench.speed import SpeedProbe

#: (metric, unit, better) for every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("acts_per_s", "1/s", "higher"),
    ("accesses_per_s", "1/s", "higher"),
    ("hosts_per_s", "1/s", "higher"),
    ("p50_ms", "ms", "lower"),
    ("p99_ms", "ms", "lower"),
    ("goodput_rps", "1/s", "higher"),
]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (the rule ``repro loadgen`` uses)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def digest(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


Span = Tuple[float, float]


@dataclass
class Round:
    """What one round of a round-based workload did.

    A round is a fixed unit of work that repeats identically: the same
    inputs every time, so the same digest every time."""

    digest: str
    ops: int
    failed: int
    acts: int
    accesses: int
    hosts: int
    #: Requests correctly refused (``serve``): misses, not failures.
    refused: int = 0
    #: ``perf_counter`` (start, end) of each operation (DIMM campaign,
    #: trace run, request), in the order every round runs them.
    spans: List[Span] = field(default_factory=list)
    #: Durations of operations timed without spans (whole campaigns
    #: run on the pool), in the order every round runs them.
    latencies: List[float] = field(default_factory=list)
    #: Reference seconds per host second over the round, when the
    #: workload measured it where the work ran; else the probe's.
    scale: Optional[float] = None
    #: Reference seconds the round's activations took, when the
    #: workload measured them apart from the rest of the round.
    hammer_s: Optional[float] = None
    #: Activations per reference second of the round's median attack,
    #: when the workload times its attacks one by one.
    acts_rate: Optional[float] = None
    #: Host seconds of the round's wall spent in probe loops outside
    #: this process (``cluster``'s workers); not counted.
    probe_s: float = 0.0
    errors: List[str] = field(default_factory=list)
    start: float = 0.0
    wall_s: float = 0.0


class RoundWorkload:
    """Defaults for a workload made of identical rounds."""

    #: Pool worker processes the workload runs (0: all in this process).
    workers = 0

    def __init__(self, probe: SpeedProbe) -> None:
        self.probe = probe

    def time_op(self, spans: List[Span], fn: Callable, *args, **kwargs):
        """Run one operation and record its span."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        spans.append((t0, time.perf_counter()))
        return result

    def skip_reason(self) -> str | None:
        """Why this runner cannot run the workload, if it cannot."""
        return None

    def start_tracing(self, tracer) -> None:
        """Wrap every layer before the traced rounds."""
        install_layers(tracer.install())

    def trace_extra(self) -> dict:
        """Per-layer metrics only the workload itself can measure."""
        return {}

    def verify(self) -> List[str]:
        """Checks run once after the measured rounds, untimed."""
        return []

    def close(self) -> None:
        pass


def run_rounds(
    wl: RoundWorkload, *, seconds: float = 0.0, count: int = 1
) -> List[Round]:
    """Repeat ``wl.round`` at least *count* times and until *seconds*
    of wall time are used, with a probe sample around every round."""
    rounds: List[Round] = []
    wl.probe.sample()
    start = time.perf_counter()
    while len(rounds) < count or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        r = wl.round()
        r.start, r.wall_s = t0, time.perf_counter() - t0
        wl.probe.sample()
        rounds.append(r)
    return rounds


def check_rounds(rounds: List[Round], expected: str | None) -> List[str]:
    """Every round must repeat the first round's digest, and match the
    expected digest when one is pinned."""
    errors = [e for r in rounds for e in r.errors]
    first = rounds[0].digest
    if any(r.digest != first for r in rounds):
        errors.append("digest changed between identical rounds")
    if expected is not None and first != expected:
        errors.append(f"digest {first[:16]} does not match pinned {expected[:16]}")
    return errors


def scaled_walls(rounds: List[Round], probe: SpeedProbe) -> List[float]:
    """Each round's wall time in reference-host seconds."""
    return [
        (r.wall_s - r.probe_s) * r.scale
        if r.scale
        else probe.scaled(r.start, r.start + r.wall_s)
        for r in rounds
    ]


def op_times(rounds: List[Round], probe: SpeedProbe) -> List[float]:
    """Each operation's time in reference-host seconds: the median of
    its repetitions.

    Rounds repeat identical work in the same order, so operation *k* of
    one round is operation *k* of every round.  Operations timed without
    spans carry their round's scale."""
    rows = []
    for r in rounds:
        if r.spans:
            rows.append([probe.scaled(a, b) for a, b in r.spans])
        else:
            k = r.scale or probe.scale(r.start, r.start + r.wall_s)
            rows.append([x * k for x in r.latencies])
    if len({len(row) for row in rows}) != 1:
        raise ValueError("rounds ran different numbers of operations")
    return [statistics.median(column) for column in zip(*rows)]


def round_metrics(rounds: List[Round], probe: SpeedProbe) -> Dict[str, float]:
    """The end-to-end metrics (all but set-up) of a round-based run.

    Rates divide one round's work by the median scaled round time (by
    the median ``hammer_s`` for activations, where measured, or the
    median ``acts_rate``); latencies are percentiles over operations of
    :func:`op_times`."""
    first = rounds[0]
    wall = statistics.median(scaled_walls(rounds, probe))
    hammer = statistics.median(r.hammer_s for r in rounds) if first.hammer_s else wall
    if first.acts_rate:
        acts_per_s = statistics.median(r.acts_rate for r in rounds)
        accesses_per_s = acts_per_s * first.accesses / first.acts
    else:
        acts_per_s = first.acts / hammer
        accesses_per_s = first.accesses / hammer
    ops = op_times(rounds, probe)
    return {
        "peak_rss_mib": peak_rss_mib(),
        "acts_per_s": acts_per_s,
        "accesses_per_s": accesses_per_s,
        "hosts_per_s": first.hosts / wall,
        "p50_ms": statistics.median(ops) * 1e3,
        "p99_ms": percentile(ops, 0.99) * 1e3,
        "goodput_rps": (first.ops - first.failed - first.refused) / wall,
    }
