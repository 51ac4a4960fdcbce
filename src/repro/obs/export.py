"""Trace exporters: JSONL event log, Chrome trace format, summaries.

- :func:`write_jsonl` / :func:`read_jsonl` — one JSON object per line,
  ``{"seq": n, "kind": tag, ...payload}``.  The round trip restores the
  typed records, so replays can be diffed field-by-field.
- :func:`to_chrome_trace` — the ``chrome://tracing`` / Perfetto JSON
  shape.  Simulated seconds become microseconds on the timeline;
  events without a clock inherit the last clock seen on the stream.
- :func:`sequence_signature` — the deterministic comparison key used by
  the differential tests and ``repro trace --compare-backends``:
  wall-clock spans are dropped, everything else must match exactly.
- :func:`summarize` — per-kind counts and the simulated-time extent.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, Iterable, List, Optional, Tuple, Union

from repro.errors import ReproError
from repro.obs.events import TraceEvent, event_from_payload, signature_of

PathLike = Union[str, "object"]


class ExportError(ReproError):
    """A trace file could not be written or parsed."""


def event_to_dict(event: TraceEvent, seq: int) -> Dict[str, Any]:
    """Wire form of one event (stable across exporter formats)."""
    out: Dict[str, Any] = {"seq": seq, "kind": event.kind}
    out.update(event.to_payload())
    return out


def write_jsonl(path: PathLike, events: Iterable[TraceEvent]) -> int:
    """Write events as JSON Lines; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:  # type: ignore[arg-type]
        for seq, event in enumerate(events):
            fh.write(json.dumps(event_to_dict(event, seq), sort_keys=True))
            fh.write("\n")
            count += 1
    return count


def read_jsonl(path: PathLike) -> List[TraceEvent]:
    """Parse a JSONL trace back into typed event records."""
    out: List[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as fh:  # type: ignore[arg-type]
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                kind = record.pop("kind")
                record.pop("seq", None)
                out.append(event_from_payload(kind, record))
            except (ValueError, KeyError) as exc:
                raise ExportError(f"{path}:{lineno}: bad trace line: {exc}") from exc
    return out


def to_chrome_trace(
    events: Iterable[TraceEvent], *, process_name: str = "repro"
) -> Dict[str, Any]:
    """Chrome trace-format dict (``json.dump`` it to a ``.json`` file).

    Instant events (``ph: "i"``) carry the simulated clock as the
    timeline; spans become complete events (``ph: "X"``) whose duration
    is the measured wall time, placed at their simulated anchor.
    """
    trace_events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "args": {"name": process_name},
        }
    ]
    last_clock = 0.0
    for seq, event in enumerate(events):
        when = event.when
        if when is not None:
            last_clock = when
        ts_us = last_clock * 1e6
        payload = event.to_payload()
        payload["seq"] = seq
        if event.kind == "span":
            trace_events.append(
                {
                    "name": payload.get("name", "span"),
                    "cat": "span",
                    "ph": "X",
                    "ts": ts_us,
                    "dur": payload.get("wall_ns", 0) / 1e3,
                    "pid": 1,
                    "tid": 1,
                    "args": payload,
                }
            )
        else:
            trace_events.append(
                {
                    "name": event.kind,
                    "cat": event.kind,
                    "ph": "i",
                    "s": "g",
                    "ts": ts_us,
                    "pid": 1,
                    "tid": 1,
                    "args": payload,
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: PathLike, events: Iterable[TraceEvent]) -> int:
    """Write the Chrome trace file; returns the number of trace events."""
    doc = to_chrome_trace(events)
    with open(path, "w", encoding="utf-8") as fh:  # type: ignore[arg-type]
        json.dump(doc, fh)
    return len(doc["traceEvents"])


def sequence_signature(
    events: Iterable[TraceEvent],
) -> List[Tuple[Any, ...]]:
    """Deterministic event sequence: the comparison key for differential
    scalar-vs-vectorized runs (wall-clock spans excluded)."""
    out: List[Tuple[Any, ...]] = []
    for event in events:
        sig = signature_of(event)
        if sig is not None:
            out.append(sig)
    return out


def summarize(events: Iterable[TraceEvent]) -> Dict[str, Any]:
    """Per-kind counts plus the simulated-clock extent of the trace."""
    counts: Dict[str, int] = {}
    first: Optional[float] = None
    last: Optional[float] = None
    total = 0
    for event in events:
        total += 1
        counts[event.kind] = counts.get(event.kind, 0) + 1
        when = event.when
        if when is not None:
            if first is None:
                first = when
            last = when
    return {
        "events": total,
        "by_kind": dict(sorted(counts.items())),
        "first_clock": first,
        "last_clock": last,
    }


def render_summary(summary: Dict[str, Any], *, dropped: int = 0) -> str:
    """Human-readable form of :func:`summarize` for the CLI."""
    lines = [f"trace events: {summary['events']} (dropped: {dropped})"]
    for kind, count in summary["by_kind"].items():
        lines.append(f"  {kind:<18} {count}")
    if summary["first_clock"] is not None:
        lines.append(
            f"simulated clock: {summary['first_clock']:.6f}s "
            f"-> {summary['last_clock']:.6f}s"
        )
    return "\n".join(lines)
