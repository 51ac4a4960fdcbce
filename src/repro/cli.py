"""Command-line interface: ``python -m repro <command>``.

Gives operators the paper's experiments without writing code:

- ``info`` — simulated hardware and Siloz topology summary,
- ``attack`` — a containment campaign on Siloz or the baseline,
- ``perf`` — regenerate Figure 4/5/6/7 data at chosen fidelity,
- ``overheads`` — the §3/§5.4/§6 reservation arithmetic,
- ``health`` — the CE-storm fault-injection + live-offlining scenario,
- ``softrefresh`` — the §8.3 deadline study,
- ``trace`` — run a traced scenario and summarize (or differentially
  compare) its event stream,
- ``fleet`` — a multi-host campaign: subarray-group-aware placement,
  admission control, and per-host simulations sharded across supervised
  workers, with optional chaos (``--chaos-seed``) and checkpoint/resume
  (``--journal`` / ``--resume``),
- ``chaos`` — print the chaos plan a seeded campaign would apply,
- ``bakeoff`` — run identical seeded fleet campaigns under each
  registered Rowhammer mitigation (Siloz, PARA, CATT, domain-buddy,
  guard-row striping, and the unmitigated baseline) and print the
  containment / capacity-loss / overhead comparison table,
- ``serve`` — run the fleet as a long-lived request/response daemon on
  a TCP port or UNIX socket (JSON-line protocol, graceful drain on
  SIGTERM/SIGINT),
- ``loadgen`` — drive a serve daemon (or ``--spawn`` one in-process)
  with a seeded concurrent request mix and verify the async run
  replays bit-identically through the synchronous fleet path.

Any command can be observed: ``--trace FILE`` writes the JSONL event
log, ``--chrome-trace FILE`` writes a ``chrome://tracing`` file, and
``--metrics`` dumps the metrics registry after the run.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.errors import ReproError
from repro.units import MiB, fmt_bytes


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.core import SilozHypervisor
    from repro.dram.geometry import DRAMGeometry
    from repro.hv import Machine
    from repro.mm.numa import NodeKind

    print("Paper-scale geometry (Table 2):")
    print(DRAMGeometry.paper_default().describe())
    print("\nBooting Siloz on the bit-level small machine:")
    hv = SilozHypervisor.boot(Machine.small(seed=args.seed, backend=args.backend))
    print(hv.describe())
    for kind in NodeKind:
        nodes = hv.topology.nodes_of_kind(kind)
        if nodes:
            print(f"  {kind.value}: {len(nodes)} node(s), "
                  f"{fmt_bytes(sum(n.total_bytes for n in nodes))} total")
    print(f"  guard rows offlined: {fmt_bytes(hv.offline.total_bytes())}")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.attack import attack_from_vm
    from repro.core import SilozHypervisor, audit_hypervisor
    from repro.hv import BaselineHypervisor, Machine, VmSpec
    from repro.units import KiB

    machine = Machine.small(seed=args.seed, backend=args.backend)
    if args.hypervisor == "siloz":
        hv = SilozHypervisor.boot(machine)
    else:
        hv = BaselineHypervisor(machine, backing_page_bytes=64 * KiB)
    attacker = hv.create_vm(VmSpec(name="attacker", memory_bytes=2 * MiB))
    hv.create_vm(VmSpec(name="victim", memory_bytes=2 * MiB))
    print(f"hypervisor: {args.hypervisor}; fuzzing {args.budget} patterns...")
    outcome = attack_from_vm(
        hv, attacker, seed=args.seed, pattern_budget=args.budget
    )
    print(outcome.summary())
    verdict = "CONTAINED" if outcome.contained and not outcome.victim_flips else "ESCAPED"
    print(f"verdict: {verdict}")
    if args.hypervisor == "siloz":
        violations = audit_hypervisor(hv)
        print(f"isolation audit: {violations or 'clean'}")
        return 0 if verdict == "CONTAINED" and not violations else 1
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.eval import (
        baseline_system,
        perf_experiment,
        render_figure,
        siloz_system,
    )
    from repro.workloads import EXEC_TIME_SUITES, THROUGHPUT_SUITES

    figure = args.figure
    metric = "time" if figure in (4, 6) else "bandwidth"
    workloads = list(EXEC_TIME_SUITES if figure in (4, 6) else THROUGHPUT_SUITES)
    if figure in (4, 5):
        systems = [
            baseline_system(seed=args.seed, backend=args.backend),
            siloz_system(seed=args.seed, backend=args.backend),
        ]
        baseline = "baseline"
    else:
        systems = [
            siloz_system(
                name="siloz-1024",
                rows_per_subarray=128,
                seed=args.seed,
                backend=args.backend,
            ),
            siloz_system(
                name="siloz-512",
                rows_per_subarray=64,
                seed=args.seed,
                backend=args.backend,
            ),
            siloz_system(
                name="siloz-2048",
                rows_per_subarray=256,
                seed=args.seed,
                backend=args.backend,
            ),
        ]
        baseline = "siloz-1024"
    comparison = perf_experiment(
        systems, workloads, metric=metric, trials=args.trials, accesses=args.accesses
    )
    print(
        render_figure(
            comparison,
            baseline=baseline,
            title=f"Figure {figure} ({metric}, {args.trials} trials, "
            f"{args.accesses} accesses/trial)",
        )
    )
    return 0


def _cmd_overheads(args: argparse.Namespace) -> int:
    from repro.core import SilozConfig
    from repro.dram.geometry import DRAMGeometry
    from repro.dram.transforms import (
        artificial_group_reservation,
        scrambling_offline_fraction,
        zebram_overhead,
    )
    from repro.ept import ept_page_count

    geom = DRAMGeometry.paper_default()
    cfg = SilozConfig.paper_default()
    print(f"EPT+guard reservation: {cfg.reserved_fraction(geom) * 100:.4f}% of DRAM")
    print(
        f"EPT pages for a packed socket: {ept_page_count(geom.socket_bytes)} "
        f"(row group holds {geom.row_group_bytes // 4096})"
    )
    for size in (513, 1023, 2047):
        print(
            f"subarray={size} rows: scrambling removal "
            f"{scrambling_offline_fraction(size) * 100:.2f}%, artificial groups "
            f"{artificial_group_reservation(size)[1] * 100:.2f}%"
        )
    print(f"ZebRAM overhead: 1:1={zebram_overhead(1):.0%}, 4:1={zebram_overhead(4):.0%}")
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    from repro.faults import run_ce_storm_scenario

    result = run_ce_storm_scenario(
        seed=args.seed,
        storm_errors=args.storm_errors,
        interval=args.interval,
        backend=args.backend,
    )
    if args.transcript:
        for line in result.transcript:
            print(line)
    else:
        for line in result.transcript[-8:]:
            print(line)
    print(f"replay key: {result.replay_key()}")
    return 0 if result.success else 1


def _run_traced_scenario(args: argparse.Namespace, backend: str):
    """Run the selected ``trace`` scenario on *backend* under a fresh
    tracer; returns (events, dropped)."""
    from repro import obs

    obs.enable(reset=True)
    if args.scenario == "health":
        from repro.faults import run_ce_storm_scenario

        run_ce_storm_scenario(seed=args.seed, backend=backend)
    else:  # attack
        from repro.attack import attack_from_vm
        from repro.core import SilozHypervisor
        from repro.hv import Machine, VmSpec

        hv = SilozHypervisor.boot(Machine.small(seed=args.seed, backend=backend))
        attacker = hv.create_vm(VmSpec(name="attacker", memory_bytes=2 * MiB))
        hv.create_vm(VmSpec(name="victim", memory_bytes=2 * MiB))
        attack_from_vm(hv, attacker, seed=args.seed, pattern_budget=args.budget)
    tr = obs.tracer()
    return list(tr.events()), tr.dropped


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.export import render_summary, sequence_signature, summarize

    if args.compare_backends:
        from repro.engine.backend import SimBackend

        backends = tuple(b.value for b in SimBackend)
        sigs = {}
        for backend in backends:
            events, _ = _run_traced_scenario(args, backend)
            sigs[backend] = sequence_signature(events)
            print(
                f"{backend}: {len(events)} event(s), "
                f"{len(sigs[backend])} deterministic"
            )
        diverged = [b for b in backends[1:] if sigs[b] != sigs["scalar"]]
        if diverged:
            print(
                f"trace: {', '.join(diverged)} event sequence(s) DIVERGED "
                "from scalar",
                file=sys.stderr,
            )
            return 1
        print(f"trace: {', '.join(backends)} event sequences identical")
        return 0
    events, dropped = _run_traced_scenario(args, args.backend)
    print(render_summary(summarize(events), dropped=dropped))
    return 0


def _positive_int(text: str) -> int:
    """argparse type for ``--shards``: a positive int."""
    if not (text.isdigit() and int(text) > 0):
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    return int(text)


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.chaos import ChaosPlan
    from repro.fleet import ClusterCampaign, ClusterConfig

    config = ClusterConfig(
        hosts=args.hosts,
        vms=args.vms,
        policy=args.policy,
        scenario=args.scenario,
        backend=args.backend,
        seed=args.seed,
        workers=args.workers,
        budget=args.budget,
        queue_depth=args.queue_depth,
        max_retries=args.max_retries,
        mitigation=args.mitigation,
        shards=args.shards,
    )
    chaos = None
    if args.chaos_seed is not None:
        chaos = ChaosPlan.generate(
            args.chaos_seed, args.hosts, events=args.chaos_events,
            arrivals=args.vms,
        )
    campaign = ClusterCampaign(config, chaos)
    report = campaign.run(journal_path=args.journal, resume_path=args.resume)
    if campaign.resumed_shards:
        print(
            f"resume: {campaign.resumed_shards} shard(s) replayed from "
            f"journal {args.resume}"
        )
    print(report.render_text())
    # Chaos-planned crashes are handled (evacuated + audited) outcomes,
    # not campaign failures; unplanned host failures or a dirty audit
    # still fail the run.
    clean = report.unplanned_failures == 0 and report.summary["audit_clean"]
    return 0 if clean else 1


def _cmd_bakeoff(args: argparse.Namespace) -> int:
    from repro.mitigations.bakeoff import BakeoffConfig, run_bakeoff

    mitigations: tuple = ()
    if args.mitigations:
        mitigations = tuple(
            name.strip() for name in args.mitigations.split(",") if name.strip()
        )
    config = BakeoffConfig(
        mitigations=mitigations,
        hosts=args.hosts,
        vms=args.vms,
        seed=args.seed,
        backend=args.backend,
        workers=args.workers,
        budget=args.budget,
        policy=args.policy,
        scenario=args.scenario,
        storm_errors=args.storm_errors,
    )
    report = run_bakeoff(config)
    print(report.render_table())
    print(f"bakeoff digest: {report.digest()}")
    return 0 if report.clean else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import ChaosPlan

    plan = ChaosPlan.generate(
        args.chaos_seed if args.chaos_seed is not None else args.seed,
        args.hosts,
        events=args.chaos_events,
        arrivals=args.vms,
    )
    print(plan.describe())
    return 0


def _serve_config(args: argparse.Namespace):
    from repro.serve import ServiceConfig

    return ServiceConfig(
        hosts=args.hosts,
        policy=args.policy,
        backend=args.backend,
        seed=args.seed,
        sockets=args.sockets,
        queue_depth=args.queue_depth,
        max_retries=args.max_retries,
        mitigation=args.mitigation,
        attack_budget=args.attack_budget,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import main_serve

    return main_serve(
        _serve_config(args),
        host=args.bind,
        port=args.port,
        socket_path=args.socket,
    )


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from repro.errors import ServeError
    from repro.serve import LoadMix, LoadgenConfig, run_loadgen, serve_and_load

    config = LoadgenConfig(
        requests=args.requests,
        connections=args.connections,
        window=args.window,
        seed=args.seed,
        mix=LoadMix.parse(args.mix),
        attack_budget=args.attack_budget,
        verify_replay=not args.no_verify,
    )
    try:
        if args.spawn:
            report = asyncio.run(serve_and_load(_serve_config(args), config))
        else:
            if args.port == 0 and args.socket is None:
                raise ServeError(
                    "repro loadgen needs --port/--socket, or --spawn"
                )
            report = asyncio.run(
                run_loadgen(
                    config,
                    host=args.bind,
                    port=args.port,
                    socket_path=args.socket,
                )
            )
    except (ConnectionRefusedError, FileNotFoundError) as exc:
        print(f"repro loadgen: cannot connect: {exc}", file=sys.stderr)
        return 2
    print(report.render_text())
    if args.json:
        import json

        from pathlib import Path

        Path(args.json).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n"
        )
        print(f"loadgen: wrote report to {args.json}")
    if config.verify_replay and not report.replay_verified:
        print("loadgen: replay digest MISMATCH", file=sys.stderr)
        return 1
    return 0


def _add_serve_options(parser: argparse.ArgumentParser) -> None:
    """Daemon/fleet options shared by ``serve`` and ``loadgen --spawn``."""
    parser.add_argument(
        "--bind", default="127.0.0.1", help="TCP bind/connect address"
    )
    parser.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = unused)"
    )
    parser.add_argument(
        "--socket", metavar="PATH", default=None, help="UNIX socket path"
    )
    parser.add_argument("--hosts", type=int, default=2, help="fleet hosts")
    parser.add_argument(
        "--sockets", type=int, default=1, help="DRAM sockets per host"
    )
    parser.add_argument(
        "--policy",
        choices=("first-fit", "best-fit", "spread"),
        default="best-fit",
        help="placement scheduler",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=32, help="admission queue bound"
    )
    parser.add_argument(
        "--max-retries", type=int, default=2, help="placement retries"
    )
    parser.add_argument(
        "--mitigation", default="siloz", help="per-host Rowhammer mitigation"
    )
    parser.add_argument(
        "--attack-budget",
        type=int,
        default=2,
        help="fuzzer patterns per run_attack request",
    )


def _cmd_softrefresh(args: argparse.Namespace) -> int:
    from repro.core.softrefresh import RefreshScheme, compare_schemes

    results = compare_schemes(duration_s=args.duration, seed=args.seed)
    for scheme in RefreshScheme:
        log = results[scheme]
        print(
            f"{scheme.value:>10}: misses={log.missed_deadlines}/{log.refreshes} "
            f"min={log.min_interval_ms:.3f}ms max={log.max_interval_ms:.3f}ms "
            f"{'VULNERABLE' if log.vulnerable else 'safe'}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Siloz (SOSP 2023) reproduction toolkit",
    )
    parser.add_argument("--seed", type=int, default=0, help="global RNG seed")
    from repro.engine.backend import SimBackend

    parser.add_argument(
        "--backend",
        choices=tuple(b.value for b in SimBackend),
        default="scalar",
        help="simulation hot path: 'scalar' reference or numpy "
        "'vectorized' kernels (identical results, see README Performance)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="stream library logs (boot, placement, attacks, MCEs)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="record the run's trace events as JSON Lines to FILE",
    )
    parser.add_argument(
        "--chrome-trace",
        metavar="FILE",
        default=None,
        help="record the run as a chrome://tracing / Perfetto JSON file",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics registry after the command finishes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="show simulated hardware and topology")

    attack = sub.add_parser("attack", help="run a containment campaign")
    attack.add_argument(
        "--hypervisor", choices=("siloz", "baseline"), default="siloz"
    )
    attack.add_argument("--budget", type=int, default=40, help="fuzzer patterns")

    perf = sub.add_parser("perf", help="regenerate a performance figure")
    perf.add_argument("--figure", type=int, choices=(4, 5, 6, 7), required=True)
    perf.add_argument("--trials", type=int, default=3)
    perf.add_argument("--accesses", type=int, default=8000)

    sub.add_parser("overheads", help="reservation arithmetic (O1/O2)")

    health = sub.add_parser(
        "health", help="CE-storm fault-injection + live-offlining scenario"
    )
    health.add_argument(
        "--storm-errors", type=int, default=20, help="correctable errors to inject"
    )
    health.add_argument(
        "--interval", type=float, default=0.004, help="seconds between errors"
    )
    health.add_argument(
        "--transcript", action="store_true", help="print the full run transcript"
    )

    refresh = sub.add_parser("softrefresh", help="§8.3 deadline study")
    refresh.add_argument("--duration", type=float, default=30.0, help="seconds")

    trace = sub.add_parser(
        "trace", help="run a traced scenario; summarize or compare backends"
    )
    trace.add_argument(
        "--scenario",
        choices=("health", "attack"),
        default="health",
        help="which scenario to trace",
    )
    trace.add_argument(
        "--budget", type=int, default=10, help="fuzzer patterns (attack scenario)"
    )
    trace.add_argument(
        "--compare-backends",
        action="store_true",
        help="run the scenario on both backends and fail if the "
        "deterministic event sequences differ",
    )

    fleet = sub.add_parser(
        "fleet", help="multi-host placement + parallel campaign execution"
    )
    fleet.add_argument("--hosts", type=int, default=4, help="hosts in the fleet")
    fleet.add_argument("--vms", type=int, default=12, help="tenant arrival trace length")
    fleet.add_argument(
        "--policy",
        choices=("first-fit", "best-fit", "spread"),
        default="best-fit",
        help="placement scheduler",
    )
    fleet.add_argument(
        "--scenario",
        choices=("attack", "health"),
        default="attack",
        help="per-host campaign to run after placement",
    )
    fleet.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for per-host simulation (merged results "
        "are bit-identical at any worker count)",
    )
    fleet.add_argument(
        "--budget", type=int, default=6, help="fuzzer patterns per host (attack)"
    )
    fleet.add_argument(
        "--queue-depth", type=int, default=64, help="admission queue bound"
    )
    fleet.add_argument(
        "--max-retries", type=int, default=2, help="placement retries before eviction"
    )
    fleet.add_argument(
        "--mitigation",
        default="siloz",
        help="Rowhammer mitigation every host boots with (see "
        "'repro bakeoff' for the registered names)",
    )
    fleet.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        help="generate and apply a seeded chaos plan (host crashes, worker "
        "deaths, UE storms, digest corruption, queue stalls)",
    )
    fleet.add_argument(
        "--chaos-events",
        type=int,
        default=4,
        help="events in the generated chaos plan",
    )
    fleet.add_argument(
        "--journal",
        metavar="FILE",
        default=None,
        help="checkpoint completed shards to a JSONL journal FILE",
    )
    fleet.add_argument(
        "--resume",
        metavar="FILE",
        default=None,
        help="resume a killed campaign: replay completed shards from the "
        "journal FILE, run only what's missing, keep journalling to it",
    )
    fleet.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help="admission shards: contiguous host ranges, each with its own "
        "bounded queue (arrival i goes to shard i %% shards); part of the "
        "merge digest",
    )

    bakeoff = sub.add_parser(
        "bakeoff",
        help="compare Rowhammer mitigations on identical seeded fleets",
    )
    bakeoff.add_argument(
        "--mitigations",
        default="",
        metavar="CSV",
        help="comma-separated mitigation names (default: all registered)",
    )
    bakeoff.add_argument("--hosts", type=int, default=4, help="hosts per campaign")
    bakeoff.add_argument(
        "--vms", type=int, default=8, help="tenant arrival trace length"
    )
    bakeoff.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes per campaign (digest is worker-independent)",
    )
    bakeoff.add_argument(
        "--budget",
        type=int,
        default=150,
        help="fuzzer patterns per attacked host (150 reliably leaks on the "
        "unmitigated baseline)",
    )
    bakeoff.add_argument(
        "--policy",
        choices=("first-fit", "best-fit", "spread"),
        default="best-fit",
        help="placement scheduler",
    )
    bakeoff.add_argument(
        "--scenario",
        choices=("attack", "health"),
        default="attack",
        help="per-host campaign scenario",
    )
    bakeoff.add_argument(
        "--storm-errors", type=int, default=20, help="CE storm size (health)"
    )

    chaos = sub.add_parser(
        "chaos",
        help="print the chaos plan a seeded fleet campaign would apply",
    )
    chaos.add_argument("--hosts", type=int, default=4, help="hosts in the fleet")
    chaos.add_argument("--vms", type=int, default=12, help="arrival trace length")
    chaos.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        help="chaos plan seed (defaults to --seed)",
    )
    chaos.add_argument(
        "--chaos-events", type=int, default=4, help="events in the plan"
    )

    serve = sub.add_parser(
        "serve",
        help="run the fleet as a long-lived request/response daemon",
    )
    _add_serve_options(serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="drive a serve daemon with a seeded concurrent request mix",
    )
    _add_serve_options(loadgen)
    loadgen.add_argument(
        "--spawn",
        action="store_true",
        help="spawn an in-process daemon on an ephemeral port instead of "
        "connecting to --port/--socket",
    )
    loadgen.add_argument(
        "--requests", type=int, default=10_000, help="total requests to issue"
    )
    loadgen.add_argument(
        "--connections", type=int, default=8, help="pipelined connections"
    )
    loadgen.add_argument(
        "--window", type=int, default=32, help="in-flight window per connection"
    )
    loadgen.add_argument(
        "--mix",
        default="",
        metavar="CSV",
        help="request mix weights, e.g. place=55,evict=25,attack=2",
    )
    loadgen.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the replay-digest verification pass",
    )
    loadgen.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="write the loadgen report as JSON to FILE",
    )

    return parser


_HANDLERS = {
    "info": _cmd_info,
    "attack": _cmd_attack,
    "perf": _cmd_perf,
    "overheads": _cmd_overheads,
    "health": _cmd_health,
    "softrefresh": _cmd_softrefresh,
    "trace": _cmd_trace,
    "fleet": _cmd_fleet,
    "chaos": _cmd_chaos,
    "bakeoff": _cmd_bakeoff,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.verbose:
        from repro.log import enable_console_logging

        enable_console_logging()
    observing = bool(args.trace or args.chrome_trace or args.metrics)
    if observing or args.command == "trace":
        from repro import obs

        obs.enable(reset=True)
    try:
        code = _HANDLERS[args.command](args)
    except ReproError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        code = 2
    if observing:
        from repro import obs
        from repro.obs.export import write_chrome_trace, write_jsonl

        tr = obs.tracer()
        events = list(tr.events()) if tr is not None else []
        if args.trace:
            n = write_jsonl(args.trace, events)
            print(f"trace: wrote {n} event(s) to {args.trace}")
        if args.chrome_trace:
            n = write_chrome_trace(args.chrome_trace, events)
            print(f"trace: wrote {n} timeline event(s) to {args.chrome_trace}")
        if args.metrics:
            print(obs.render_metrics())
        obs.disable()
    return code
