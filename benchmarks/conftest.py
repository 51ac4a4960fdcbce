"""Shared helpers for the per-table/per-figure benchmarks.

Every benchmark prints its reproduced table/figure (run pytest with
``-s`` to stream them) and asserts the paper's qualitative claim, so
``pytest benchmarks/ --benchmark-only`` doubles as the repro check.
"""

import os
import pathlib
import platform
import subprocess

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
