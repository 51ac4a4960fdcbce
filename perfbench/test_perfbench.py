"""The benchmark's own tests: run with ``python3 -m pytest perfbench -q``.

Every workload runs at the tiny shape through the one command, in both
modes; the tests check that each declared metric is printed with its
unit, that a wrong pinned digest fails the run, and that the benchmark
refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench.common import END_TO_END
from perfbench.layers import PER_LAYER
from perfbench.speed import REFERENCE_S, SpeedProbe
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ("containment", "fig5", "cluster", "serve")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _tiny(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return _run(
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--shape", "tiny", cwd=cwd,
    )


def _copy_benchmark(into: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", into)
    shutil.copytree(
        ROOT / "perfbench", into / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_prints_every_metric(workload, trace):
    out = _tiny(workload, trace)
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == [name for name, _, _ in declared]
    for name, unit, _ in declared:
        assert result["metrics"][name]["unit"] == unit
        assert any(
            line.split()[:1] == [name] and line.split()[-1] == unit for line in lines
        ), f"{name} not printed with its unit"
    assert any(line.startswith("perfbench record: ") for line in lines)
    if workload == "serve" and trace:
        # The mix fills the fleet: refused placements pass the run.
        assert result["metrics"]["serve.rejected_frac"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_pinned_digest_fails_the_run(workload, tmp_path):
    _copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    pins_path = tmp_path / "perfbench" / "pins.json"
    pins = json.loads(pins_path.read_text())
    pins["tiny"][workload]["1"] = "0" * 64
    pins_path.write_text(json.dumps(pins))
    out = _tiny(workload, 0, cwd=tmp_path)
    assert out.returncode == 1
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert "does not match pinned" in out.stdout


def test_refuses_to_run_without_the_sources(tmp_path):
    _copy_benchmark(tmp_path)
    out = _run("--workload", "fig5", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_probe_scales_by_the_samples_around_an_interval():
    probe = SpeedProbe()
    # The loop ran 2x, then 4x slower than on the reference host.
    probe.samples = [(0.0, 2 * REFERENCE_S), (10.0, 10.0 + 4 * REFERENCE_S)]
    assert probe.scale(1.0, 5.0) == pytest.approx(1 / 3)
    assert probe.scaled(1.0, 5.0) == pytest.approx(4 / 3)
    # The probe's own time inside an interval is not counted.
    assert probe.scaled(1.0, 11.0) == pytest.approx((10 - 4 * REFERENCE_S) / 3)


def test_self_times_partition_wall_time():
    tracer = Tracer().install()
    try:
        def leaf():
            time.sleep(0.02)

        def middle():
            time.sleep(0.01)
            traced_leaf()

        traced_leaf = tracer.wrap("a/leaf", leaf)
        traced_middle = tracer.wrap("b/middle", middle)
        t0 = time.perf_counter()
        traced_middle()
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    leaf_self, leaf_incl, _ = tracer.stats["a/leaf"]
    middle_self, middle_incl, _ = tracer.stats["b/middle"]
    assert leaf_self == leaf_incl >= 0.02
    assert middle_incl == pytest.approx(middle_self + leaf_incl)
    assert middle_self + leaf_self <= wall
