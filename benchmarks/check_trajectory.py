#!/usr/bin/env python3
"""Compare two ``BENCH_engine.json`` points and gate on regressions.

CI stashes the committed ``BENCH_engine.json`` before the perf guard
overwrites it, then runs::

    python benchmarks/check_trajectory.py PREV CURRENT --max-regression 0.20

Without ``--key`` every metric in :data:`TRACKED` is gated: the
campaign speedup (vectorized over scalar), the Figure 5 decode speedup, the end-to-end Figure 5 pipeline speedup,
and the disabled-tracing overhead.  The
check fails (exit 1) when any "up" metric drops more than
``--max-regression`` (a fraction) below the previous point, or any
"down" metric rises above the previous point by more than that fraction
(with a one-percentage-point floor, since overheads hover near zero).
With ``--key`` only that entry's ``speedup`` is gated (the fleet bench
uses this).  Each comparison is appended to the current file's
``trajectory`` list so the uploaded artifact carries the history of the
run-over-run movement.  A metric absent from the previous file, or
absent from both files, is not an error (first run, renamed benchmark):
it is skipped with a note.  A metric present previously but missing
from the current file fails the check.

Benches that record a ``runner`` entry (``cpu_count``, python, numpy,
commit) identify the machine that measured them.  When the two points'
machine fields differ, a ``cross-runner comparison`` line names each
differing field before the verdicts — a note for the reader only: the
bounds, clamps and exit code are the same either way.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from typing import Sequence

#: Metrics gated when no ``--key`` is given: (entry, field, direction).
#: "up" means higher is better (speedups); "down" means lower is better
#: (overhead percentages).
TRACKED: tuple[tuple[str, str, str], ...] = (
    ("table3_containment", "vectorized_scalar_speedup", "up"),
    ("fig5_throughput", "speedup", "up"),
    ("fig5_e2e", "speedup", "up"),
    ("tracing", "disabled_overhead_pct", "down"),
)

#: Floor clamps for metrics with high cross-runner variance.  The
#: committed previous point may have been measured on a faster runner
#: than the one gating today; without a clamp, one lucky measurement
#: permanently ratchets the floor above what honest hardware can
#: reproduce (exactly what happened to fig5: a 2.25x point pushed the
#: floor to 1.80x, and the next runner's honest 1.61x failed the gate).
#: The clamp bounds how high the *relative* floor can climb; it does
#: not weaken the absolute targets the benches assert themselves
#: (fig5's flat-decode win still must clear 1.0x inside bench_engine).
#: For "up" metrics the clamp bounds how high the floor can climb; for
#: "down" metrics it bounds how low the ceiling can sink.
BASELINE_CLAMPS: dict[tuple[str, str], float] = {
    # Single-threaded decode speedup; observed 1.61x-2.25x across
    # runners (cache/turbo sensitive).  1.30x is below every honest
    # observation and still well above the 1.0x break-even.
    ("fig5_throughput", "speedup"): 1.30,
    # Vectorized-over-scalar bake-off speedup; observed ~3.8x on a
    # 1-core container.  1.50x is well below honest observations and
    # still asserts the numpy path actually wins.
    ("bakeoff_campaign", "speedup"): 1.50,
    # End-to-end fig5 pipeline speedup; observed ~23x at introduction.
    # The clamp matches the ISSUE's absolute ≥20x target (which
    # bench_engine asserts itself) so a lucky fast point can never
    # ratchet the relative floor above what the target demands.
    ("fig5_e2e", "speedup"): 20.0,
    # Disabled-tracing overhead is timing noise centred on zero; a
    # lucky negative point (e.g. -1.33%) must not force every future
    # run to also measure negative.  The ceiling never drops below
    # +1pp; the bench itself asserts the 2pp absolute tolerance.
    ("tracing", "disabled_overhead_pct"): 1.0,
    # Sustained serve-daemon throughput (req/s); observed ~1400 on a
    # dev container.  Absolute req/s is the most runner-sensitive
    # metric we gate (placements simulate EPT construction), so the
    # floor never climbs above 400 — well below honest observations,
    # far above a hung or serialized daemon.
    ("serve_throughput", "rps"): 400.0,
    # Cluster campaign throughput (1000 hosts / 100k VM arrivals);
    # absolute hosts/sec depends on cores and clock, so the floor never
    # climbs above 1.5 — below any honest observation (a 1-core
    # container sustains ~3), far above a wedged or accidentally
    # serialized-by-lock campaign.
    ("fleet_cluster", "hosts_per_sec"): 1.5,
}


#: Runner-record fields that identify the measuring machine.  The
#: recorded commit is provenance, not identity (it differs between any
#: two points), so it is not compared.
RUNNER_FIELDS: tuple[str, ...] = ("cpu_count", "python", "numpy")


def runner_differences(previous: pathlib.Path, current: pathlib.Path) -> list[str]:
    """``field previous -> current`` for every :data:`RUNNER_FIELDS`
    entry the two points disagree on; a point without a runner record
    reads as all-``None``.  Empty when either file is unreadable."""
    runners = []
    for path in (previous, current):
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            return []
        runner = doc.get("runner") if isinstance(doc, dict) else None
        runners.append(runner if isinstance(runner, dict) else {})
    prev, cur = runners
    return [
        f"{name} {prev.get(name)} -> {cur.get(name)}"
        for name in RUNNER_FIELDS
        if prev.get(name) != cur.get(name)
    ]


def load_metric(path: pathlib.Path, key: str, field: str = "speedup") -> float | None:
    """The recorded *field* of entry *key*, or None when absent."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    entry = doc.get(key)
    if not isinstance(entry, dict):
        return None
    value = entry.get(field)
    return float(value) if isinstance(value, (int, float)) else None


def append_trajectory(path: pathlib.Path, point: dict) -> None:
    """Record the comparison on the current file (best effort)."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError):
        return
    doc.setdefault("trajectory", []).append(point)
    path.write_text(json.dumps(doc, indent=2) + "\n")


def check_metric(
    current_path: pathlib.Path,
    previous_path: pathlib.Path,
    key: str,
    field: str,
    direction: str,
    max_regression: float,
) -> bool:
    """Gate one metric; prints the verdict, returns pass/fail."""
    label = key if field == "speedup" else f"{key}.{field}"
    current = load_metric(current_path, key, field)
    previous = load_metric(previous_path, key, field)
    if current is None:
        if previous is None:
            print(f"trajectory: {label} absent from both points — skipped")
            return True
        print(f"trajectory: no {label} in {current_path} — FAIL")
        return False
    if previous is None:
        print(
            f"trajectory: no previous point ({previous_path}); "
            f"current {label} {current:.2f} accepted"
        )
        return True

    if direction == "up":
        bound = previous * (1.0 - max_regression)
        clamp = BASELINE_CLAMPS.get((key, field))
        if clamp is not None and bound > clamp:
            print(
                f"trajectory: {label} floor clamped "
                f"{bound:.2f} -> {clamp:.2f} (cross-runner variance bound)"
            )
            bound = clamp
        ok = current >= bound
        bound_name = "floor"
    else:
        bound = previous + max(abs(previous) * max_regression, 1.0)
        clamp = BASELINE_CLAMPS.get((key, field))
        if clamp is not None and bound < clamp:
            print(
                f"trajectory: {label} ceiling clamped "
                f"{bound:.2f} -> {clamp:.2f} (cross-runner variance bound)"
            )
            bound = clamp
        ok = current <= bound
        bound_name = "ceiling"
    point = {
        "key": key,
        "previous_speedup" if field == "speedup" else "previous_value": previous,
        "current_speedup" if field == "speedup" else "current_value": current,
        bound_name: round(bound, 3),
        "max_regression": max_regression,
        "ok": ok,
    }
    if field != "speedup":
        point["field"] = field
    append_trajectory(current_path, point)
    verdict = "OK" if ok else "REGRESSED"
    print(
        f"trajectory: {label} {previous:.2f} -> {current:.2f} "
        f"({bound_name} {bound:.2f}, max regression "
        f"{max_regression:.0%}) — {verdict}"
    )
    return ok


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("previous", type=pathlib.Path)
    parser.add_argument("current", type=pathlib.Path)
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.20,
        help="allowed fractional drop in speedup (default 0.20 = 20%%)",
    )
    parser.add_argument(
        "--key",
        default=None,
        help="gate only this entry's metric instead of the tracked "
        "engine metrics (used by the fleet and bakeoff benches)",
    )
    parser.add_argument(
        "--field",
        default="speedup",
        help="with --key: which field of the entry to gate (default "
        "'speedup')",
    )
    parser.add_argument(
        "--direction",
        choices=("up", "down"),
        default="up",
        help="with --key: 'up' gates a drop below the previous point "
        "(speedups), 'down' gates a rise above it (losses, overheads)",
    )
    args = parser.parse_args(argv)

    differences = runner_differences(args.previous, args.current)
    if differences:
        print(
            "trajectory: cross-runner comparison — "
            + ", ".join(differences)
            + " (note only; bounds unchanged)"
        )

    if args.key is not None:
        # A bench may decline to record a gateable point (e.g. the fleet
        # scaling bench on a single-core runner): it writes a "skipped"
        # marker instead of a speedup.  That is a loud, deliberate skip —
        # pass it through without gating rather than failing on the
        # missing metric.  With one exception: on a multi-core machine a
        # skip marker should never exist in the first place, so TWO
        # consecutive recorded skips while this gate runs multi-core
        # mean the metric is being silently starved (mislabelled
        # runner, env knob left set, bench bug) — fail loudly instead
        # of letting skips satisfy the gate forever.
        try:
            entry = json.loads(args.current.read_text()).get(args.key)
        except (OSError, ValueError):
            entry = None
        if isinstance(entry, dict) and "skipped" in entry:
            try:
                prev_entry = json.loads(args.previous.read_text()).get(args.key)
            except (OSError, ValueError):
                prev_entry = None
            prev_skipped = isinstance(prev_entry, dict) and "skipped" in prev_entry
            cpus = os.cpu_count() or 1
            if prev_skipped and cpus >= 2:
                print(
                    f"trajectory: {args.key} skipped 2+ consecutive recorded "
                    f"runs (now: {entry['skipped']}; previously: "
                    f"{prev_entry['skipped']}) while this gate runs on "
                    f"{cpus} CPUs — a capable runner must record the "
                    "metric — FAIL"
                )
                return 1
            print(
                f"trajectory: {args.key} SKIPPED ({entry['skipped']}) — "
                "not gated"
            )
            return 0
        specs: Sequence[tuple[str, str, str]] = (
            (args.key, args.field, args.direction),
        )
    else:
        specs = TRACKED
    # The primary metric must exist in the current point: a bench run
    # that produced nothing is a failure, not a skip.
    primary = specs[0][0]
    if load_metric(args.current, primary, specs[0][1]) is None:
        print(
            f"trajectory: no {primary!r} {specs[0][1]} in {args.current} — FAIL"
        )
        return 1

    ok = True
    for key, field, direction in specs:
        ok = (
            check_metric(
                args.current, args.previous, key, field, direction, args.max_regression
            )
            and ok
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
