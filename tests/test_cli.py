"""Tests for the command-line interface."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_attack_defaults(self):
        args = build_parser().parse_args(["attack"])
        assert args.hypervisor == "siloz"
        assert args.budget == 40

    def test_perf_requires_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["perf"])

    def test_perf_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["perf", "--figure", "9"])

    def test_global_seed(self):
        args = build_parser().parse_args(["--seed", "7", "info"])
        assert args.seed == 7

    def test_global_observability_flags(self):
        args = build_parser().parse_args(
            ["--trace", "t.jsonl", "--chrome-trace", "c.json", "--metrics", "info"]
        )
        assert args.trace == "t.jsonl"
        assert args.chrome_trace == "c.json"
        assert args.metrics is True

    def test_backend_offers_scalar_and_vectorized_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--backend", "batched", "health"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'batched'" in err
        assert "scalar" in err and "vectorized" in err

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.scenario == "health"
        assert args.compare_backends is False


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "guard rows offlined" in out

    def test_attack_siloz_contained(self, capsys):
        assert main(["--seed", "5", "attack", "--budget", "25"]) == 0
        out = capsys.readouterr().out
        assert "CONTAINED" in out
        assert "audit: clean" in out

    def test_attack_baseline_runs(self, capsys):
        assert main(["--seed", "5", "attack", "--hypervisor", "baseline",
                     "--budget", "15"]) == 0
        assert "verdict" in capsys.readouterr().out

    def test_overheads(self, capsys):
        assert main(["overheads"]) == 0
        out = capsys.readouterr().out
        assert "0.0244%" in out
        assert "ZebRAM" in out

    def test_softrefresh(self, capsys):
        assert main(["softrefresh", "--duration", "5"]) == 0
        out = capsys.readouterr().out
        assert "timer-task" in out and "guard-rows" in out
        assert "safe" in out

    def test_perf_figure4_small(self, capsys):
        assert main(["perf", "--figure", "4", "--trials", "2",
                     "--accesses", "2000"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out and "geomean" in out

    def test_perf_figure6_small(self, capsys):
        assert main(["perf", "--figure", "6", "--trials", "2",
                     "--accesses", "2000"]) == 0
        out = capsys.readouterr().out
        assert "siloz-512" in out and "siloz-2048" in out


class TestObservability:
    def test_health_writes_jsonl_trace(self, capsys, tmp_path):
        from repro.obs.export import read_jsonl

        path = tmp_path / "t.jsonl"
        assert main(["--seed", "7", "--trace", str(path), "health"]) == 0
        assert "trace: wrote" in capsys.readouterr().out
        events = read_jsonl(path)
        assert events, "health scenario emitted no events"
        kinds = {e.kind for e in events}
        assert "fault_injection" in kinds and "ecc_word" in kinds

    def test_health_chrome_trace_is_valid_json(self, tmp_path):
        import json

        path = tmp_path / "ct.json"
        assert main(["--seed", "7", "--chrome-trace", str(path), "health"]) == 0
        doc = json.loads(path.read_text())
        assert doc["traceEvents"][0]["ph"] == "M"

    def test_metrics_dump(self, capsys):
        assert main(["--seed", "7", "--metrics", "health"]) == 0
        out = capsys.readouterr().out
        assert "# metrics" in out
        assert "counter faults.flip" in out

    def test_trace_summary(self, capsys):
        assert main(["--seed", "7", "trace"]) == 0
        out = capsys.readouterr().out
        assert "trace events:" in out and "ecc_word" in out

    def test_trace_compare_backends(self, capsys):
        assert main(["--seed", "7", "trace", "--compare-backends"]) == 0
        out = capsys.readouterr().out
        assert "sequences identical" in out

    def test_observability_disabled_after_run(self, tmp_path):
        from repro import obs

        main(["--seed", "7", "--trace", str(tmp_path / "t.jsonl"), "health"])
        assert obs.ENABLED is False


class TestFleetCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.hosts == 4
        assert args.policy == "best-fit"
        assert args.scenario == "attack"
        assert args.workers == 1

    def test_policy_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--policy", "worst-fit"])

    def test_small_campaign(self, capsys):
        assert main(["--seed", "3", "fleet", "--hosts", "2", "--vms", "4",
                     "--budget", "1"]) == 0
        out = capsys.readouterr().out
        assert "fleet campaign report" in out
        assert "merge digest:" in out

    def test_workers_merge_identically(self, capsys):
        argv = ["--seed", "3", "fleet", "--hosts", "2", "--vms", "4",
                "--budget", "1"]
        assert main(argv + ["--workers", "1"]) == 0
        one = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        two = capsys.readouterr().out
        digest = [ln for ln in one.splitlines() if ln.startswith("merge digest")]
        assert digest and digest == \
            [ln for ln in two.splitlines() if ln.startswith("merge digest")]

    def test_fleet_writes_jsonl_trace(self, capsys, tmp_path):
        from repro.obs.export import read_jsonl

        path = tmp_path / "fleet.jsonl"
        assert main(["--seed", "3", "--trace", str(path), "fleet",
                     "--hosts", "2", "--vms", "4", "--budget", "1"]) == 0
        events = read_jsonl(path)
        assert events
        kinds = {e.kind for e in events}
        assert "placement" in kinds and "admission" in kinds

    @pytest.mark.parametrize(
        "flags",
        [
            pytest.param(
                ["--shards", "2", "--mitigation", "bogus"],
                id="cluster-unknown-mitigation",
            ),
            pytest.param(["--queue-depth", "0"], id="classic-queue-depth"),
            pytest.param(
                ["--shards", "2", "--queue-depth", "0"], id="cluster-queue-depth"
            ),
            pytest.param(["--max-retries", "-1"], id="classic-max-retries"),
            pytest.param(
                ["--shards", "2", "--max-retries", "-1"], id="cluster-max-retries"
            ),
            pytest.param(["--shards", "abc"], id="shards-not-a-number"),
            pytest.param(["--shards", "auto"], id="shards-auto-is-gone"),
            pytest.param(["--shards", "5"], id="shards-above-hosts"),
            pytest.param(["--chaos-seed", "1", "--resume", "/nonexistent"],
                         id="resume-missing-journal"),
        ],
    )
    def test_bad_input_exits_2_without_traceback(self, flags):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "fleet", "--hosts", "4",
             "--budget", "1", *flags],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert any(
            line.startswith("repro fleet: ") for line in proc.stderr.splitlines()
        ), proc.stderr

    def test_invalid_policy_via_config_is_reported(self, capsys):
        # argparse catches bad --policy; a bad value that only the
        # config can judge must still exit 2 with a readable message.
        assert main(["fleet", "--hosts", "2", "--shards", "3"]) == 2
        assert "repro fleet: shards must be in 1..hosts" in capsys.readouterr().err


class TestTypedErrors:
    """Every ``ReproError`` reaching the CLI is one ``repro <command>:``
    line and exit 2, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(
                ["serve", "--socket", "/tmp/never-bound.sock",
                 "--mitigation", "nope"],
                id="serve-unknown-mitigation",
            ),
            pytest.param(
                ["loadgen", "--spawn", "--queue-depth", "0"],
                id="loadgen-queue-depth",
            ),
            pytest.param(["chaos", "--hosts", "0"], id="chaos-no-hosts"),
            pytest.param(
                ["health", "--storm-errors", "-1"], id="health-bad-plan"
            ),
            pytest.param(
                ["bakeoff", "--mitigations", "nope"], id="bakeoff-unknown"
            ),
        ],
    )
    def test_exits_2_without_traceback(self, argv):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"repro {argv[0]}: "), proc.stderr
