"""Tests for the CI perf-trajectory gate (benchmarks/check_trajectory.py)."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "check_trajectory.py"
_spec = importlib.util.spec_from_file_location("check_trajectory", _PATH)
check_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_trajectory)


def _bench_json(tmp_path, name: str, speedup: float | None) -> pathlib.Path:
    path = tmp_path / name
    doc = {"bench": "engine"}
    if speedup is not None:
        doc["table3_containment"] = {"vectorized_scalar_speedup": speedup}
    path.write_text(json.dumps(doc))
    return path


class TestCheckTrajectory:
    def test_passes_within_tolerance(self, tmp_path, capsys):
        prev = _bench_json(tmp_path, "prev.json", 2.5)
        cur = _bench_json(tmp_path, "cur.json", 2.1)
        assert check_trajectory.main([str(prev), str(cur)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_fails_on_regression(self, tmp_path, capsys):
        prev = _bench_json(tmp_path, "prev.json", 3.0)
        cur = _bench_json(tmp_path, "cur.json", 2.0)  # -33% > 20% allowed
        assert check_trajectory.main([str(prev), str(cur)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_custom_max_regression(self, tmp_path):
        prev = _bench_json(tmp_path, "prev.json", 3.0)
        cur = _bench_json(tmp_path, "cur.json", 2.0)
        argv = [str(prev), str(cur), "--max-regression", "0.5"]
        assert check_trajectory.main(argv) == 0

    def test_missing_previous_is_not_an_error(self, tmp_path, capsys):
        cur = _bench_json(tmp_path, "cur.json", 2.0)
        missing = tmp_path / "nope.json"
        assert check_trajectory.main([str(missing), str(cur)]) == 0
        assert "no previous point" in capsys.readouterr().out

    def test_missing_current_fails(self, tmp_path):
        prev = _bench_json(tmp_path, "prev.json", 2.0)
        empty = _bench_json(tmp_path, "cur.json", None)
        assert check_trajectory.main([str(prev), str(empty)]) == 1

    def test_appends_trajectory_point(self, tmp_path):
        prev = _bench_json(tmp_path, "prev.json", 2.5)
        cur = _bench_json(tmp_path, "cur.json", 2.4)
        check_trajectory.main([str(prev), str(cur)])
        doc = json.loads(cur.read_text())
        (point,) = doc["trajectory"]
        assert point["field"] == "vectorized_scalar_speedup"
        assert point["previous_value"] == 2.5
        assert point["current_value"] == 2.4
        assert point["ok"] is True


def _full_bench_json(tmp_path, name: str, **overrides) -> pathlib.Path:
    """A bench point carrying every tracked metric (overridable)."""
    doc = {
        "bench": "engine",
        "table3_containment": {
            "vectorized_scalar_speedup": overrides.get("containment", 12.0),
        },
        "fig5_throughput": {"speedup": overrides.get("fig5", 2.2)},
        "tracing": {
            "disabled_overhead_pct": overrides.get("overhead", 0.1),
        },
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestTrackedMetrics:
    def test_all_tracked_metrics_gated(self, tmp_path, capsys):
        prev = _full_bench_json(tmp_path, "prev.json")
        cur = _full_bench_json(tmp_path, "cur.json")
        assert check_trajectory.main([str(prev), str(cur)]) == 0
        out = capsys.readouterr().out
        assert "table3_containment.vectorized_scalar_speedup" in out
        assert "fig5_throughput" in out
        assert "tracing.disabled_overhead_pct" in out

    def test_vectorized_speedup_regression_fails(self, tmp_path, capsys):
        prev = _full_bench_json(tmp_path, "prev.json", containment=13.0)
        cur = _full_bench_json(tmp_path, "cur.json", containment=9.5)
        assert check_trajectory.main([str(prev), str(cur)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_fig5_regression_below_clamp_fails(self, tmp_path, capsys):
        # fig5 is noisy across runners, so its relative floor is clamped
        # at 1.30x — but dropping below the clamp itself still fails.
        prev = _full_bench_json(tmp_path, "prev.json", fig5=3.0)
        cur = _full_bench_json(tmp_path, "cur.json", fig5=1.2)
        assert check_trajectory.main([str(prev), str(cur)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_fig5_floor_is_clamped_for_cross_runner_variance(
        self, tmp_path, capsys
    ):
        # A lucky 3.0x previous point must not ratchet the floor past
        # the 1.30x clamp: an honest 2.0x on slower hardware passes.
        prev = _full_bench_json(tmp_path, "prev.json", fig5=3.0)
        cur = _full_bench_json(tmp_path, "cur.json", fig5=2.0)
        assert check_trajectory.main([str(prev), str(cur)]) == 0
        out = capsys.readouterr().out
        assert "floor clamped" in out
        assert "1.30" in out

    def test_unclamped_metric_floor_still_ratchets(self, tmp_path):
        # table3 has no clamp entry: the plain relative floor applies.
        prev = _full_bench_json(tmp_path, "prev.json", containment=30.0)
        cur = _full_bench_json(tmp_path, "cur.json", containment=20.0)
        assert check_trajectory.main([str(prev), str(cur)]) == 1

    def test_tracing_ceiling_clamped_against_lucky_negative_point(
        self, tmp_path, capsys
    ):
        # A lucky -1.33% previous point must not force future runs to
        # also measure negative: the ceiling never drops below +1pp.
        prev = _full_bench_json(tmp_path, "prev.json", overhead=-1.33)
        cur = _full_bench_json(tmp_path, "cur.json", overhead=0.8)
        assert check_trajectory.main([str(prev), str(cur)]) == 0
        assert "ceiling clamped" in capsys.readouterr().out

    def test_tracing_overhead_rise_fails(self, tmp_path, capsys):
        # "down" metric: overhead climbing past previous + 1pt fails.
        prev = _full_bench_json(tmp_path, "prev.json", overhead=0.2)
        cur = _full_bench_json(tmp_path, "cur.json", overhead=1.9)
        assert check_trajectory.main([str(prev), str(cur)]) == 1
        assert "tracing.disabled_overhead_pct" in capsys.readouterr().out

    def test_tracing_overhead_within_point_passes(self, tmp_path):
        prev = _full_bench_json(tmp_path, "prev.json", overhead=-0.3)
        cur = _full_bench_json(tmp_path, "cur.json", overhead=0.5)
        assert check_trajectory.main([str(prev), str(cur)]) == 0

    def test_new_metric_without_previous_is_accepted(self, tmp_path, capsys):
        # Old points predate the other tracked metrics; first run must pass.
        prev = _bench_json(tmp_path, "prev.json", 4.0)
        cur = _full_bench_json(tmp_path, "cur.json")
        assert check_trajectory.main([str(prev), str(cur)]) == 0
        assert "accepted" in capsys.readouterr().out

    def test_single_key_mode_unchanged(self, tmp_path, capsys):
        prev = _full_bench_json(tmp_path, "prev.json")
        cur = _full_bench_json(tmp_path, "cur.json")
        argv = [str(prev), str(cur), "--key", "fig5_throughput"]
        assert check_trajectory.main(argv) == 0
        out = capsys.readouterr().out
        assert "table3_containment" not in out


def _skip_bench_json(tmp_path, name: str, entry: dict | None) -> pathlib.Path:
    path = tmp_path / name
    doc = {"bench": "fleet"}
    if entry is not None:
        doc["fleet_campaign"] = entry
    path.write_text(json.dumps(doc))
    return path


class TestConsecutiveSkips:
    """A skip marker passes the gate once; two in a row on a multi-core
    runner mean the metric is being silently starved and must fail."""

    _ARGS = ["--key", "fleet_campaign"]

    def test_single_skip_passes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(check_trajectory.os, "cpu_count", lambda: 4)
        prev = _skip_bench_json(tmp_path, "prev.json", {"speedup": 2.4})
        cur = _skip_bench_json(
            tmp_path, "cur.json", {"skipped": "single-core runner (1 cpu)"}
        )
        assert check_trajectory.main([str(prev), str(cur), *self._ARGS]) == 0
        assert "SKIPPED" in capsys.readouterr().out

    def test_two_consecutive_skips_fail_on_multicore(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(check_trajectory.os, "cpu_count", lambda: 4)
        prev = _skip_bench_json(
            tmp_path, "prev.json", {"skipped": "single-core runner (1 cpu)"}
        )
        cur = _skip_bench_json(
            tmp_path, "cur.json", {"skipped": "single-core runner (1 cpu)"}
        )
        assert check_trajectory.main([str(prev), str(cur), *self._ARGS]) == 1
        out = capsys.readouterr().out
        assert "2+ consecutive" in out and "FAIL" in out

    def test_two_consecutive_skips_pass_on_single_core(
        self, tmp_path, capsys, monkeypatch
    ):
        # A genuinely single-core gate runner cannot demand the metric.
        monkeypatch.setattr(check_trajectory.os, "cpu_count", lambda: 1)
        prev = _skip_bench_json(
            tmp_path, "prev.json", {"skipped": "single-core runner (1 cpu)"}
        )
        cur = _skip_bench_json(
            tmp_path, "cur.json", {"skipped": "single-core runner (1 cpu)"}
        )
        assert check_trajectory.main([str(prev), str(cur), *self._ARGS]) == 0
        assert "SKIPPED" in capsys.readouterr().out

    def test_skip_with_missing_previous_passes(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(check_trajectory.os, "cpu_count", lambda: 4)
        cur = _skip_bench_json(
            tmp_path, "cur.json", {"skipped": "single-core runner (1 cpu)"}
        )
        missing = tmp_path / "nope.json"
        assert check_trajectory.main([str(missing), str(cur), *self._ARGS]) == 0
        assert "SKIPPED" in capsys.readouterr().out


def _serve_json(tmp_path, name: str, rps: float, runner: dict | None) -> pathlib.Path:
    path = tmp_path / name
    doc = {"bench": "serve", "serve_throughput": {"rps": rps}}
    if runner is not None:
        doc["runner"] = runner
    path.write_text(json.dumps(doc))
    return path


_RUNNER = {"cpu_count": 2, "python": "3.11.9", "numpy": "1.26.4", "commit": "aaa"}


class TestRunnerIdentity:
    """Points from different runners are compared with a note naming the
    differing fields; the verdict and exit code do not change."""

    _ARGS = ["--key", "serve_throughput", "--field", "rps"]

    def _run(self, tmp_path, capsys, prev_runner, cur_runner, cur_rps=900.0):
        prev = _serve_json(tmp_path, "prev.json", 1000.0, prev_runner)
        cur = _serve_json(tmp_path, "cur.json", cur_rps, cur_runner)
        rc = check_trajectory.main([str(prev), str(cur), *self._ARGS])
        return rc, capsys.readouterr().out

    def test_differing_fields_are_named(self, tmp_path, capsys):
        other = dict(_RUNNER, cpu_count=1, numpy="2.0.1")
        rc, out = self._run(tmp_path, capsys, other, _RUNNER)
        assert rc == 0
        (line,) = [l for l in out.splitlines() if "cross-runner comparison" in l]
        assert "cpu_count 1 -> 2" in line and "numpy 2.0.1 -> 1.26.4" in line
        assert "python" not in line

    def test_previous_without_runner_record_is_noted(self, tmp_path, capsys):
        rc, out = self._run(tmp_path, capsys, None, _RUNNER)
        assert rc == 0
        assert "cross-runner comparison — cpu_count None -> 2" in out

    def test_same_runner_new_commit_is_not_noted(self, tmp_path, capsys):
        rc, out = self._run(tmp_path, capsys, _RUNNER, dict(_RUNNER, commit="bbb"))
        assert rc == 0
        assert "cross-runner comparison" not in out

    def test_note_does_not_change_the_verdict(self, tmp_path, capsys):
        # 300 rps is below both the 20% floor and the 400 rps clamp.
        other = dict(_RUNNER, cpu_count=8)
        rc, out = self._run(tmp_path, capsys, other, _RUNNER, cur_rps=300.0)
        assert rc == 1
        assert "cross-runner comparison" in out and "REGRESSED" in out
