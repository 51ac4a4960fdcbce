"""The fleet bench's single-core "skipped" marker path, unit-tested.

``benchmarks/bench_fleet.py`` declines to record a scaling speedup on a
1-CPU runner — it writes a loud ``skipped`` marker that
``check_trajectory.py --key`` passes through ungated.  That branch only
ever executed on single-core machines, so it is pinned here with
``os.cpu_count`` monkeypatched both ways and the campaign stubbed out
(this is a test of the *recording* logic, not the fleet)."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys
import types

import pytest

BENCH_PATH = (
    pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "bench_fleet.py"
)


_RUNNER = {"cpu_count": 8, "python": "3", "numpy": "1", "commit": "c" * 40}


class _FakeReport:
    """Constant-digest stand-in for a campaign report."""

    hosts_failed = 0
    merge_digest = "f" * 64


@pytest.fixture
def bench(tmp_path, monkeypatch):
    """A fresh bench_fleet module, stubbed and redirected into tmp."""
    spec = importlib.util.spec_from_file_location("bench_fleet_under_test", BENCH_PATH)
    mod = importlib.util.module_from_spec(spec)
    # The bench imports its runner record from benchmarks/conftest.py;
    # under this suite ``conftest`` names tests/conftest.py.
    monkeypatch.setitem(
        sys.modules, "conftest", types.SimpleNamespace(runner_record=lambda: _RUNNER)
    )
    spec.loader.exec_module(mod)
    # Serial takes 1s, N workers take 1/N s: a clean N-x scaling stub.
    monkeypatch.setattr(
        mod, "_campaign", lambda workers: (1.0 / workers, _FakeReport())
    )
    monkeypatch.setattr(mod, "BENCH_JSON", tmp_path / "BENCH_fleet.json")
    yield mod
    sys.modules.pop("bench_fleet_under_test", None)


def _recorded(mod) -> dict:
    return json.loads(mod.BENCH_JSON.read_text())["fleet_campaign"]


def test_single_core_writes_skip_marker_not_speedup(bench, monkeypatch):
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 1)
    bench.test_fleet_scaling()
    payload = _recorded(bench)
    assert payload["skipped"] == "single-core runner (1 cpu)"
    assert "speedup" not in payload, (
        "a 1-core runner must not record a speedup: it would poison the "
        "trajectory baseline for real runners"
    )
    assert payload["target_enforced"] is False
    assert payload["identical_results"] is True


def test_multi_core_records_speedup_and_no_marker(bench, monkeypatch):
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 8)
    bench.test_fleet_scaling()
    payload = _recorded(bench)
    assert "skipped" not in payload
    assert payload["speedup"] == pytest.approx(4.0)  # stub: N-x scaling
    assert payload["target_enforced"] is True
    assert payload["cpu_count"] == 8
    assert json.loads(bench.BENCH_JSON.read_text())["runner"] == _RUNNER


def test_multi_core_below_worker_count_is_not_enforced(bench, monkeypatch):
    # 2 CPUs: enough to measure (> 1) but below the 4-worker target, so
    # the speedup is recorded yet the >=2x assertion must not fire.
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 2)
    bench.test_fleet_scaling()
    payload = _recorded(bench)
    assert payload["speedup"] == pytest.approx(4.0)
    assert payload["target_enforced"] is False


def test_two_cpu_warning_does_not_claim_single_core(bench, monkeypatch, capsys):
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 2)
    bench.test_fleet_scaling()
    (warning,) = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("WARNING")
    ]
    assert "2-CPU runner" in warning
    assert "single-core" not in warning


def test_skip_marker_passes_trajectory_gate(bench, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 1)
    bench.test_fleet_scaling()

    check_path = BENCH_PATH.parent / "check_trajectory.py"
    spec = importlib.util.spec_from_file_location("check_trajectory_under_test", check_path)
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    prev = tmp_path / "prev.json"
    prev.write_text("{}")
    code = check.main(
        [str(prev), str(bench.BENCH_JSON), "--key", "fleet_campaign"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "SKIPPED" in out and "not gated" in out
    sys.modules.pop("check_trajectory_under_test", None)
