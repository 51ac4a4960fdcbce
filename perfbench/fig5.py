"""``fig5``: the Figure 5 throughput sweep (paper section 7.3).

``baseline_system`` and ``siloz_system`` run all seven
``THROUGHPUT_SUITES`` for several trials at a fixed access count on the
vectorized backend: ``perf_experiment``'s loop, run here so that each
trace run is timed on its own.  One round boots both systems and runs
the sweep; one operation is one trace run (one suite, system and trial).
A trial number seeds its trace, and the workload seed picks which
trials run, so every seed sweeps different traces of the same length.
"""

from __future__ import annotations

import dataclasses

from repro.eval import PerfComparison, baseline_system, siloz_system
from repro.workloads import THROUGHPUT_SUITES, run_in_vm

from perfbench.common import Round, RoundWorkload, digest
from perfbench.speed import SpeedProbe

#: Paper claim: Siloz throughput within +-0.5 % of the baseline.
PAPER_BAND = 0.005
SHAPES = {
    "full": {"suites": len(THROUGHPUT_SUITES), "trials": 5, "accesses": 12_000},
    "tiny": {"suites": len(THROUGHPUT_SUITES), "trials": 2, "accesses": 1_500},
}


class Fig5(RoundWorkload):
    def __init__(self, seed: int, shape: str, probe: SpeedProbe):
        super().__init__(probe)
        self.seed = seed
        s = SHAPES[shape]
        self.suites = list(THROUGHPUT_SUITES)[: s["suites"]]
        self.trials = range(seed * s["trials"], (seed + 1) * s["trials"])
        self.accesses = s["accesses"]

    def setup(self) -> None:
        self.round()

    def round(self) -> Round:
        systems = [
            baseline_system(seed=self.seed, backend="vectorized"),
            siloz_system(seed=self.seed, backend="vectorized"),
        ]
        comparison = PerfComparison(metric="bandwidth")
        spans, runs = [], []
        for suite in self.suites:
            for system in systems:
                for trial in self.trials:
                    result = self.time_op(
                        spans, run_in_vm, system.hv, system.vm, suite,
                        accesses=self.accesses, trial=trial,
                    )
                    comparison.add(suite, system.name, result.bandwidth_gib_s)
                    runs.append(result)
        ratio = comparison.geomean_ratio("siloz")
        errors = []
        if abs(ratio - 1.0) > PAPER_BAND:
            errors.append(f"geomean(siloz/baseline) {ratio:.5f} outside 1 +- {PAPER_BAND}")
        traces = [[r.workload, r.vm, r.trial, dataclasses.asdict(r.trace)] for r in runs]
        return Round(
            digest=digest([traces, repr(ratio)]),
            spans=spans,
            ops=len(runs),
            failed=len(runs) if errors else 0,
            # Each row-buffer miss opens a row: one controller ACT.
            acts=sum(r.trace.row_misses for r in runs),
            accesses=sum(r.trace.accesses for r in runs),
            hosts=len(systems),
            errors=errors,
        )
