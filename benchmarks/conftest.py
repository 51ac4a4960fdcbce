"""Shared helpers for the per-table/per-figure benchmarks.

Every benchmark prints its reproduced table/figure (run pytest with
``-s`` to stream them) and asserts the paper's qualitative claim, so
``pytest benchmarks/ --benchmark-only`` doubles as the repro check.
"""

import os
import pathlib
import platform
import statistics
import subprocess
import time
from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro.dram.geometry import DRAMGeometry

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def runner_record() -> dict:
    """Who measured a ``BENCH_*.json`` point: the machine and library
    fields of perfbench's runner record (``cpu_count``, python, numpy)
    plus the commit measured.  ``check_trajectory.py`` names any field
    that differs between two points it compares."""
    import numpy

    commit = "unknown: not a git checkout"
    if (REPO_ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = out.stdout.strip() or commit
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


@dataclass
class PairedTiming:
    """Wall times of a reference and a candidate run in alternation,
    with the last result of each side."""

    ref_seconds: list[float]
    cand_seconds: list[float]
    ref_result: Any
    cand_result: Any

    @property
    def ratios(self) -> list[float]:
        """Per-pair speedups: reference seconds over candidate seconds."""
        return [r / c for r, c in zip(self.ref_seconds, self.cand_seconds)]

    @property
    def median(self) -> float:
        return statistics.median(self.ratios)

    @property
    def iqr(self) -> float:
        """Distance between the quartiles of the per-pair speedups."""
        q1, _, q3 = statistics.quantiles(self.ratios, n=4)
        return q3 - q1


def time_paired(
    ref: Callable[[], Any], cand: Callable[[], Any], *, pairs: int = 5, warmup: int = 0
) -> PairedTiming:
    """Time *ref* and *cand* alternately: ref, cand, ref, cand, ...

    Each pair runs its two sides back to back, so a slow phase of a
    shared host slows both sides of the pairs it overlaps instead of
    every run of one side (timing all of one side, then all of the
    other, lets one slow phase decide the ratio).  *warmup* untimed
    runs of each side come first, for one-off costs (lazy tables,
    decode caches) that a user pays once.
    """
    for _ in range(warmup):
        ref()
        cand()
    ref_seconds, cand_seconds = [], []
    ref_result = cand_result = None
    for _ in range(pairs):
        t0 = time.perf_counter()
        ref_result = ref()
        t1 = time.perf_counter()
        cand_result = cand()
        t2 = time.perf_counter()
        ref_seconds.append(t1 - t0)
        cand_seconds.append(t2 - t1)
    return PairedTiming(ref_seconds, cand_seconds, ref_result, cand_result)


def banner(title: str) -> str:
    rule = "=" * len(title)
    return f"\n{rule}\n{title}\n{rule}"


def show_figure(
    comparison,
    *,
    name: str,
    baseline: str = "baseline",
    title: str = "",
    metrics=None,
):
    """Print table + bar chart and archive the raw data as JSON.

    *metrics* is an optional :func:`repro.obs.metrics_snapshot` dict;
    when given, the figure carries a provenance footer of the counters
    recorded while the experiment ran."""
    from repro.eval.figures import comparison_to_json, render_bars
    from repro.eval.report import render_figure

    print(render_figure(comparison, baseline=baseline, title=title, metrics=metrics))
    print()
    print(render_bars(comparison, baseline=baseline))
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(comparison_to_json(comparison, baseline=baseline))
    print(f"\nraw data archived: {path}")


@pytest.fixture(scope="session")
def paper_geom():
    return DRAMGeometry.paper_default()


@pytest.fixture(scope="session", autouse=True)
def print_system_config():
    """Table 2 analogue: state what the simulated host is."""
    geom = DRAMGeometry.paper_default()
    print(banner("Simulated system configuration (paper Table 2 analogue)"))
    print(geom.describe())
    print(
        "Security benches run on the bit-level small machine; performance "
        "benches on the 32-bank medium machine (see DESIGN.md)."
    )
    yield
