"""Experiment drivers shared by the benchmarks (Figures 4-7).

A :class:`SystemUnderTest` is a booted hypervisor plus one provisioned
VM (the paper's measurement unit: one 40-vCPU guest per server).
:func:`perf_experiment` runs a workload list for several trials on each
system and collects the raw measurements that the figure renderers and
benches normalise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.core.config import SilozConfig
from repro.core.siloz import SilozHypervisor
from repro.errors import ReproError
from repro.eval.stats import (
    confidence_interval_95,
    geometric_mean,
    normalized_overhead_percent,
)
from repro.hv.hypervisor import BaselineHypervisor, Hypervisor, VmSpec
from repro.hv.machine import Machine
from repro.hv.vm import VirtualMachine
from repro.units import MiB
from repro.workloads.runner import run_in_vm

#: Default measurement VM size on the medium perf machine (two subarray
#: groups' worth, mirroring the paper's multi-group 160 GiB guest).
DEFAULT_VM_BYTES = 48 * MiB


@dataclass
class SystemUnderTest:
    """One configured hypervisor with its measurement VM."""

    name: str
    hv: Hypervisor
    vm: VirtualMachine


def baseline_system(
    *,
    vm_bytes: int = DEFAULT_VM_BYTES,
    sockets: int = 2,
    seed: int = 0,
    backend: str = "scalar",
) -> SystemUnderTest:
    """Stock Linux/KVM on the medium perf machine, with its bench VM."""
    machine = Machine.medium(sockets=sockets, seed=seed, backend=backend)
    hv = BaselineHypervisor(machine)
    vm = hv.create_vm(VmSpec(name="bench", memory_bytes=vm_bytes, vcpus=8))
    return SystemUnderTest("baseline", hv, vm)


def siloz_system(
    *,
    name: str = "siloz",
    vm_bytes: int = DEFAULT_VM_BYTES,
    sockets: int = 2,
    rows_per_subarray: int | None = None,
    seed: int = 0,
    backend: str = "scalar",
) -> SystemUnderTest:
    """Siloz on the same hardware; ``rows_per_subarray`` selects the
    §7.4 Siloz-512/-1024/-2048 analogues (64/128/256 at medium scale)."""
    machine = Machine.medium(sockets=sockets, seed=seed, backend=backend)
    config = SilozConfig.scaled_for(
        machine.geom, rows_per_subarray=rows_per_subarray
    )
    hv = SilozHypervisor.boot(machine, config)
    vm = hv.create_vm(VmSpec(name="bench", memory_bytes=vm_bytes, vcpus=8))
    return SystemUnderTest(name, hv, vm)


@dataclass
class PerfComparison:
    """workload -> system -> list of per-trial measurements."""

    metric: str  # "time" (seconds, lower better) or "bandwidth" (GiB/s)
    values: dict[str, dict[str, list[float]]] = field(default_factory=dict)

    def add(self, workload: str, system: str, value: float) -> None:
        self.values.setdefault(workload, {}).setdefault(system, []).append(value)

    def workloads(self) -> list[str]:
        return list(self.values)

    def systems(self) -> list[str]:
        first = next(iter(self.values.values()), {})
        return list(first)

    def trials(self, workload: str, system: str) -> list[float]:
        try:
            return self.values[workload][system]
        except KeyError:
            raise ReproError(f"no data for ({workload}, {system})") from None

    def overhead_percent(
        self, workload: str, system: str, *, baseline: str = "baseline"
    ) -> tuple[float, float]:
        """(mean overhead %, 95 % CI half-width) vs *baseline*."""
        base_mean, _ = confidence_interval_95(self.trials(workload, baseline))
        overheads = [
            normalized_overhead_percent(v, base_mean)
            for v in self.trials(workload, system)
        ]
        return confidence_interval_95(overheads)

    def geomean_ratio(self, system: str, *, baseline: str = "baseline") -> float:
        """Geometric-mean ratio of system/baseline across workloads —
        the paper's summary statistic (within 1 ± 0.005 for Siloz)."""
        ratios = []
        for workload in self.workloads():
            base_mean, _ = confidence_interval_95(self.trials(workload, baseline))
            sys_mean, _ = confidence_interval_95(self.trials(workload, system))
            ratios.append(sys_mean / base_mean)
        return geometric_mean(ratios)


def perf_experiment(
    systems: list[SystemUnderTest],
    workloads: list[str],
    *,
    metric: str = "time",
    trials: int = 5,
    accesses: int = 20_000,
    controller_factory=None,
) -> PerfComparison:
    """Run every workload x system x trial; returns the raw comparison."""
    if metric not in ("time", "bandwidth"):
        raise ReproError(f"unknown metric {metric!r}")
    if trials <= 0:
        raise ReproError(f"trials must be positive, got {trials}")
    comparison = PerfComparison(metric=metric)
    for workload in workloads:
        with obs.span(f"experiment.{workload}"):
            for system in systems:
                for trial in range(trials):
                    result = run_in_vm(
                        system.hv,
                        system.vm,
                        workload,
                        accesses=accesses,
                        trial=trial,
                        controller_factory=controller_factory,
                    )
                    value = (
                        result.execution_seconds
                        if metric == "time"
                        else result.bandwidth_gib_s
                    )
                    comparison.add(workload, system.name, value)
    return comparison
