"""Run one perfbench workload and print its metrics.

Usage (from anywhere; the checkout is the directory above this file)::

    python3 perfbench/run.py --workload containment --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
profile.  Either way the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every correctness check passed.  Workload inputs derive from
``--seed`` alone.  End-to-end times are in reference-host seconds
(``speed.py``).  ``--shape tiny`` is the test suite's small shape.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start first
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("containment", "fig5", "cluster", "serve")
#: Set-ups per run (the reported ``setup_s`` is their median).
SETUP_RUNS = {"full": 3, "tiny": 1}
PINS = HERE / "pins.json"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--shape", choices=("full", "tiny"), default="full")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def make_workload(args, probe, scratch: Path):
    """Import the workload (and with it ``repro``) and build it."""
    if args.workload == "containment":
        from perfbench.containment import Containment

        return Containment(args.seed, args.shape, probe)
    if args.workload == "fig5":
        from perfbench.fig5 import Fig5

        return Fig5(args.seed, args.shape, probe)
    if args.workload == "cluster":
        from perfbench.cluster import Cluster

        return Cluster(args.seed, args.shape, probe, scratch)
    from perfbench.serve import Serve

    return Serve(args.seed, args.shape, probe)


def expected_digest(args):
    pins = json.loads(PINS.read_text())
    return pins.get(args.shape, {}).get(args.workload, {}).get(str(args.seed))


def runner_record(args) -> dict:
    import numpy

    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = out.stdout.strip() or commit
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "shape": args.shape,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def probe_setup(args) -> float:
    """One set-up in a fresh interpreter: imports included."""
    out = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "1", "--shape", args.shape, "--setup-only",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {out.stderr[-2000:]}")
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def measure(args, wl, expected):
    """End-to-end run: returns (metrics, attempted, failed, errors, notes)."""
    from perfbench.common import check_rounds, round_metrics, run_rounds, scaled_walls

    rounds = run_rounds(wl, seconds=args.seconds)
    metrics = round_metrics(rounds, wl.probe)
    host_s = sum(r.wall_s for r in rounds)
    notes = [
        f"  {len(rounds)} rounds in {host_s:.3f} s, "
        f"{sum(scaled_walls(rounds, wl.probe)):.3f} s at reference speed; "
        f"digest {rounds[0].digest}"
    ]
    return (
        metrics,
        sum(r.ops for r in rounds),
        sum(r.failed for r in rounds),
        check_rounds(rounds, expected) + wl.verify(),
        notes,
    )


def profile(args, wl, expected, scratch: Path):
    """Traced run: returns (layer metrics, attempted, failed, errors, notes)."""
    from perfbench.common import check_rounds, run_rounds, scaled_walls
    from perfbench.layers import layer_metrics, profile_table
    from perfbench.tracer import Tracer, merge_counts, merge_stats

    tracer = Tracer(scratch / "spool")
    untraced = run_rounds(wl, seconds=args.seconds / 2)
    n = len(untraced)
    # Periodic samples would land inside traced spans; the samples
    # around each round still scale the traced half.
    wl.probe.stop()
    wl.start_tracing(tracer)
    try:
        traced = run_rounds(wl, count=n)
    finally:
        tracer.uninstall()
    rounds = untraced + traced
    # The traced half must reproduce the untraced half bit for bit.
    errors = check_rounds(rounds, expected) + wl.verify()
    # Self times are host seconds, so the profile compares them with
    # host wall time; the overhead compares reference-speed times.
    wall_t = sum(r.wall_s for r in traced)
    overhead = sum(scaled_walls(traced, wl.probe)) / sum(scaled_walls(untraced, wl.probe))
    stats = {k: list(v) for k, v in tracer.stats.items()}
    counts = dict(tracer.counts)
    worker_stats = getattr(wl, "worker_stats", {})
    merge_stats(stats, worker_stats)
    merge_counts(counts, getattr(wl, "worker_counts", {}))
    values = layer_metrics(
        stats, counts, per=n, wall_s=wall_t, overhead_frac=overhead - 1.0,
        workers=wl.workers, extra=wl.trace_extra(),
    )
    notes = [
        f"  {n} untraced round(s) {sum(r.wall_s for r in untraced):.3f} s, "
        f"{n} traced {wall_t:.3f} s (host time)"
    ]
    lines, fits = profile_table("driver process", tracer.stats, wall_t, n)
    notes += lines
    if wl.workers:
        supervise = tracer.stats.get("chaos.pool/supervise", [0.0, 0.0, 0])[1]
        wlines, wfits = profile_table(
            f"{wl.workers} pool workers", worker_stats, wl.workers * supervise, n
        )
        notes += wlines
        fits = fits and wfits
    if not fits:
        errors.append("layer self times exceed wall time")
    return (
        values,
        sum(r.ops for r in rounds),
        sum(r.failed for r in rounds),
        errors,
        notes,
    )


def timed_setup(wl, imported: float) -> float:
    """Imports (from the start of this file to *imported*) plus
    ``wl.setup()``, in reference-host seconds."""
    t0 = time.perf_counter()
    wl.setup()
    t1 = time.perf_counter()
    wl.probe.sample()
    return wl.probe.scaled(T0, imported) + wl.probe.scaled(t0, t1)


def run(args, probe, scratch: Path) -> int:
    wl = make_workload(args, probe, scratch)
    imported = time.perf_counter()
    probe.sample()
    skip = wl.skip_reason()
    if skip:
        print(f"perfbench: workload {args.workload} SKIPPED: {skip}")
        return 3
    if not wl.workers:
        # Pool workers would lose CPU to a periodic probe here; they
        # time their own (see cluster.py).
        probe.start()
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": timed_setup(wl, imported)}))
            return 0
        record = runner_record(args)
        print(f"perfbench record: {json.dumps(record, sort_keys=True)}")
        probes = [probe_setup(args) for _ in range(SETUP_RUNS[args.shape] - 1)]
        setup_samples = [timed_setup(wl, imported), *probes]
        expected = expected_digest(args)
        if args.trace:
            from perfbench.layers import PER_LAYER as declared

            values, attempted, failed, errors, notes = profile(args, wl, expected, scratch)
        else:
            from perfbench.common import END_TO_END as declared

            values, attempted, failed, errors, notes = measure(args, wl, expected)
            values.setdefault("setup_s", statistics.median(setup_samples))
    finally:
        wl.close()
    print(f"set-up samples (s): {', '.join(f'{s:.4f}' for s in setup_samples)}")
    for line in notes:
        print(line)
    metrics = {}
    for name, unit, _better in declared:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:<28} {values[name]:>16.6f} {unit}")
    pinned = "pinned" if expected is not None else "not pinned for this seed"
    for e in errors:
        print(f"CHECK FAILED: {e}")
    print(f"correctness: {'ok' if not errors else 'FAILED'} (digest {pinned})")
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if not errors else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources under {ROOT / 'src'}; "
            "run it from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
        p for p in sys.path if Path(p or ".").resolve() != HERE
    ]
    from perfbench.speed import SpeedProbe  # light: no program imports

    probe = SpeedProbe()
    probe.sample()
    scratch = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, probe, scratch)
    finally:
        probe.stop()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
