"""The layer table: which ``repro`` entry points belong to which layer,
what each span counts, and how span totals become per-layer metrics.

Every per-layer metric the benchmark declares is computed here for every
workload; a layer a workload never enters reads 0.  Times are *self*
times (a span minus its child spans) except ``chaos.pool.task_s``, which
is the inclusive host-task time the pool-overhead ratio needs.
"""

from __future__ import annotations

import re
import time
from typing import Dict, List, Optional, Tuple

from perfbench.speed import spin
from perfbench.tracer import Tracer

_ACTS_RE = re.compile(r"(\d+) ACTs")


def _add(counts: Dict[str, float], key: str, n: float) -> None:
    counts[key] = counts.get(key, 0) + n


def _one(key: str):
    def count(counts, args, kwargs, result):
        _add(counts, key, 1)

    return count


def _count_batch_decode(counts, args, kwargs, result):
    _add(counts, "dram.mapping.batch_addrs", len(result[0]))


def _count_activate(counts, args, kwargs, result):
    rows = args[3] if len(args) > 3 else kwargs["rows"]
    _add(counts, "engine.activate_calls", 1)
    _add(counts, "engine.acts", len(rows))


def _count_trace(counts, args, kwargs, result):
    _add(counts, "workloads.accesses", len(result))


def _count_memctrl(counts, args, kwargs, result):
    _add(counts, "memctrl.requests", result.accesses)


def _count_drain(counts, args, kwargs, result):
    _add(counts, "fleet.admission.decisions", len(result))
    _add(counts, "fleet.admission.admitted", sum(1 for d in result if d.admitted))


def _count_submit(counts, args, kwargs, result):
    if result is False:  # rejected at the door: a QUEUE_FULL decision
        _add(counts, "fleet.admission.decisions", 1)


def _count_fast_path(counts, args, kwargs, result):
    _add(counts, "fleet.admission.decisions", 1)
    _add(counts, "fleet.admission.pruned", 1)
    _add(counts, "fleet.admission.admitted", 1 if result.admitted else 0)


def count_host_task(counts, args, kwargs, result):
    """Host tasks run, the row activations their attack reported, and
    one probe-loop time (``PROBE_S``): the speed of the worker's own
    CPU.  The loop runs inside the task's span; readers subtract it."""
    _add(counts, "host_tasks", 1)
    match = _ACTS_RE.search(str(result.get("summary", "")))
    if match:
        _add(counts, "host_task_acts", int(match.group(1)))
    t0 = time.perf_counter()
    spin()
    _add(counts, PROBE_S, time.perf_counter() - t0)


#: Span that times one pool host task (installed on every cluster run).
HOST_TASK_SPAN = "chaos.pool/task"
#: Span of one ``attack_from_vm`` call (installed on every cluster run).
ATTACK_SPAN = "attack/attack_from_vm"
#: Count key of the probe-loop seconds inside host-task spans.
PROBE_S = "probe_s"


def install_pool_timers(tracer: Tracer) -> None:
    """Time each pool host task and the attack inside it (installed on
    every cluster run, before the pool forks)."""
    from repro import attack
    from repro.fleet import driver

    tracer.patch_function(driver, "run_host_task", HOST_TASK_SPAN, count_host_task)
    tracer.patch_function(attack, "attack_from_vm", ATTACK_SPAN)


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer."""
    from repro.chaos.supervisor import CampaignSupervisor
    from repro.core.siloz import SilozHypervisor
    from repro.dram.ecc import EccEngine
    from repro.dram.mapping import SkylakeMapping
    from repro.dram.module import SimulatedDram
    from repro.fleet.admission import AdmissionController
    from repro.fleet.cluster import ClusterShard
    from repro.fleet.host import Host
    from repro.fleet.report import StreamingMerge
    from repro.hv.hypervisor import BaselineHypervisor
    from repro.hv.machine import Machine
    from repro.memctrl.controller import MemoryController
    from repro.serve import core as serve_core
    from repro.serve import protocol
    from repro.workloads import trace

    m = tracer.patch_method
    m(SkylakeMapping, "decode", "dram.mapping/decode", _one("dram.mapping.decode_calls"))
    m(SkylakeMapping, "_decode_flat", "dram.mapping/decode", _one("dram.mapping.decode_calls"))
    m(SkylakeMapping, "decode_media_batch", "dram.mapping/batch_decode", _count_batch_decode)
    m(SimulatedDram, "activate_batch", "engine/activate", _count_activate)
    m(EccEngine, "check_row_bits", "dram.ecc/check", _one("dram.ecc.calls"))
    m(EccEngine, "correctable_bits", "dram.ecc/check", _one("dram.ecc.calls"))
    tracer.patch_function(trace, "generate_trace_batch", "workloads/trace", _count_trace)
    m(MemoryController, "run_batch", "memctrl/pipeline", _count_memctrl)
    m(MemoryController, "run_trace", "memctrl/pipeline", _count_memctrl)
    m(Machine, "small", "hv/boot", _one("hv.boots"))
    m(Machine, "medium", "hv/boot", _one("hv.boots"))
    m(SilozHypervisor, "boot", "hv/boot")
    m(BaselineHypervisor, "__init__", "hv/boot")
    m(Host, "boot", "hv/boot")
    m(SilozHypervisor, "create_vm", "core.siloz/place", _one("core.siloz.placed"))
    m(SilozHypervisor, "destroy_vm", "core.siloz/remove")
    m(SilozHypervisor, "release_reservation", "core.siloz/remove")
    m(ClusterShard, "offer", "fleet.admission/drain")
    m(AdmissionController, "submit", "fleet.admission/drain", _count_submit)
    m(AdmissionController, "drain", "fleet.admission/drain", _count_drain)
    m(AdmissionController, "record_decision", "fleet.admission/drain", _count_fast_path)
    m(CampaignSupervisor, "run", "chaos.pool/supervise")
    install_pool_timers(tracer)
    for attr in ("add_decision", "add_host_result", "summary"):
        m(StreamingMerge, attr, "fleet.report/merge")
    for attr in ("encode_request", "decode_request", "encode_response", "decode_response"):
        tracer.patch_function(protocol, attr, "serve/protocol")
    for attr in ("apply_place", "apply_drain", "apply_evict", "apply_attack"):
        m(serve_core.FleetStateMachine, attr, "serve/apply")


#: (metric, unit, better) for every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("dram.mapping.decode_calls", "count", "lower"),
    ("dram.mapping.decode_s", "s", "lower"),
    ("dram.mapping.batch_decode_s", "s", "lower"),
    ("dram.mapping.batch_addrs", "count", "lower"),
    ("engine.activate_s", "s", "lower"),
    ("engine.activate_calls", "count", "lower"),
    ("engine.acts", "count", "higher"),
    ("attack.self_s", "s", "lower"),
    ("dram.ecc.check_s", "s", "lower"),
    ("dram.ecc.calls", "count", "lower"),
    ("workloads.trace_s", "s", "lower"),
    ("workloads.accesses", "count", "higher"),
    ("memctrl.pipeline_s", "s", "lower"),
    ("memctrl.requests", "count", "higher"),
    ("hv.boot_s", "s", "lower"),
    ("hv.boots", "count", "lower"),
    ("core.siloz.place_s", "s", "lower"),
    ("core.siloz.placed", "count", "higher"),
    ("core.siloz.remove_s", "s", "lower"),
    ("fleet.admission.drain_s", "s", "lower"),
    ("fleet.admission.decisions", "count", "higher"),
    ("fleet.admission.admit_frac", "frac", "higher"),
    ("fleet.admission.pruned_frac", "frac", "higher"),
    ("chaos.pool.task_s", "s", "lower"),
    ("chaos.pool.overhead_frac", "frac", "lower"),
    ("chaos.pool.retries", "count", "lower"),
    ("fleet.report.merge_s", "s", "lower"),
    ("serve.protocol_s", "s", "lower"),
    ("serve.apply_s", "s", "lower"),
    ("serve.rejected_frac", "frac", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.wall_s", "s", "lower"),
]

_SELF_TIMES = {
    "dram.mapping.decode_s": "dram.mapping/decode",
    "dram.mapping.batch_decode_s": "dram.mapping/batch_decode",
    "engine.activate_s": "engine/activate",
    "attack.self_s": ATTACK_SPAN,
    "dram.ecc.check_s": "dram.ecc/check",
    "workloads.trace_s": "workloads/trace",
    "memctrl.pipeline_s": "memctrl/pipeline",
    "hv.boot_s": "hv/boot",
    "core.siloz.place_s": "core.siloz/place",
    "core.siloz.remove_s": "core.siloz/remove",
    "fleet.admission.drain_s": "fleet.admission/drain",
    "fleet.report.merge_s": "fleet.report/merge",
    "serve.protocol_s": "serve/protocol",
    "serve.apply_s": "serve/apply",
}

_COUNTS = (
    "dram.mapping.decode_calls",
    "dram.mapping.batch_addrs",
    "engine.activate_calls",
    "engine.acts",
    "dram.ecc.calls",
    "workloads.accesses",
    "memctrl.requests",
    "hv.boots",
    "core.siloz.placed",
    "fleet.admission.decisions",
)


def layer_metrics(
    stats: Dict[str, List[float]],
    counts: Dict[str, float],
    *,
    per: int,
    wall_s: float,
    overhead_frac: float,
    workers: int = 0,
    extra: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every per-layer metric from merged span totals, divided by *per*
    (the number of identical rounds traced) so values compare across
    runs of different length."""

    def self_s(span: str) -> float:
        return stats.get(span, [0.0, 0.0, 0])[0] / per

    def incl_s(span: str) -> float:
        return stats.get(span, [0.0, 0.0, 0])[1] / per

    out: Dict[str, float] = {k: self_s(span) for k, span in _SELF_TIMES.items()}
    out.update({k: counts.get(k, 0) / per for k in _COUNTS})
    decisions = counts.get("fleet.admission.decisions", 0)
    out["fleet.admission.admit_frac"] = (
        counts.get("fleet.admission.admitted", 0) / decisions if decisions else 0.0
    )
    out["fleet.admission.pruned_frac"] = (
        counts.get("fleet.admission.pruned", 0) / decisions if decisions else 0.0
    )
    task_s = incl_s(HOST_TASK_SPAN)
    supervise_s = incl_s("chaos.pool/supervise")
    out["chaos.pool.task_s"] = task_s
    out["chaos.pool.overhead_frac"] = (
        1.0 - task_s / (workers * supervise_s) if workers and supervise_s else 0.0
    )
    out["chaos.pool.retries"] = 0.0
    out["serve.rejected_frac"] = 0.0
    out["trace.overhead_frac"] = overhead_frac
    out["trace.wall_s"] = wall_s / per
    out.update(extra or {})
    return out


def layer_of(span: str) -> str:
    return span.split("/", 1)[0]


def profile_table(
    title: str, stats: Dict[str, List[float]], capacity_s: float, per: int
) -> Tuple[List[str], bool]:
    """Self time and share per layer for one group of processes.

    *capacity_s* is the wall time the group had (wall x processes).
    Returns the printable lines and whether the self times fit in it.
    """
    by_layer: Dict[str, List[float]] = {}
    for span, (self_s, _incl, calls) in stats.items():
        entry = by_layer.setdefault(layer_of(span), [0.0, 0])
        entry[0] += self_s
        entry[1] += calls
    total = sum(v[0] for v in by_layer.values())
    lines = [f"  {title}: {capacity_s / per:.4f} s of process time per round"]
    lines.append(f"    {'layer':<18}{'self s/round':>14}{'share':>9}{'calls/round':>14}")
    for layer, (self_s, calls) in sorted(by_layer.items(), key=lambda kv: -kv[1][0]):
        share = self_s / capacity_s if capacity_s else 0.0
        lines.append(
            f"    {layer:<18}{self_s / per:>14.5f}{share:>8.1%}{calls / per:>14.1f}"
        )
    rest = capacity_s - total
    lines.append(
        f"    {'(outside layers)':<18}{rest / per:>14.5f}"
        f"{(rest / capacity_s if capacity_s else 0.0):>8.1%}"
    )
    fits = total <= capacity_s * 1.0001
    lines.append(
        f"    sum of self times {total / per:.5f} s <= {capacity_s / per:.5f} s: "
        f"{'ok' if fits else 'VIOLATED'}"
    )
    return lines, fits
