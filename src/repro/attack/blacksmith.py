"""A Blacksmith-style Rowhammer fuzzer (paper §7.1).

Blacksmith searches the space of non-uniform hammering patterns
(frequencies, phases, amplitudes) for ones that flip bits *despite* TRR.
The fuzzer here does the same against the simulated TRR: sample random
patterns, sweep each across candidate locations, keep whatever flips.
The paper's extension to server DIMMs corresponds to our fuzzer driving
the full server mapping (socket/channel/rank/bank) rather than a single
DIMM.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.attack.hammer import run_pattern
from repro.attack.patterns import HammerPattern
from repro.dram.disturbance import BitFlip
from repro.dram.module import SimulatedDram
from repro.errors import AttackError


@dataclass
class FuzzReport:
    """Everything one fuzzing campaign observed."""

    patterns_tried: int = 0
    activations: int = 0
    flips: list[BitFlip] = field(default_factory=list)
    #: Patterns that produced at least one flip, with their flip counts.
    effective_patterns: list[tuple[HammerPattern, int]] = field(default_factory=list)

    @property
    def flip_count(self) -> int:
        return len(self.flips)


class BlacksmithFuzzer:
    """Randomized pattern search over a set of (bank, row-range) targets.

    ``targets`` restricts where the fuzzer may *activate* — for in-VM
    runs this is exactly the rows backing the attacker's own memory, the
    only rows a guest can touch."""

    def __init__(
        self,
        dram: SimulatedDram,
        targets: list[tuple[int, int, range]],
        *,
        seed: int = 0,
    ):
        if not targets:
            raise AttackError("fuzzer needs at least one (socket, bank, rows) target")
        self.dram = dram
        self.targets = targets
        self._rng = random.Random(seed)

    def _fit_pattern(self, pattern: HammerPattern, rows: range) -> int | None:
        """Pick a base row so every pattern offset stays inside *rows*;
        None if the range is too small."""
        offsets = set(pattern.order) | set(pattern.aggressors)
        lo, hi = min(offsets), max(offsets)
        base_min = rows.start - lo
        base_max = rows.stop - 1 - hi
        if base_max < base_min:
            return None
        return self._rng.randint(base_min, base_max)

    def run(
        self,
        *,
        pattern_budget: int = 40,
        sweeps_per_pattern: int = 2,
    ) -> FuzzReport:
        """Fuzz: try *pattern_budget* random patterns, each swept over
        *sweeps_per_pattern* random placements per target."""
        report = FuzzReport()
        for _ in range(pattern_budget):
            pattern = HammerPattern.random(self._rng)
            report.patterns_tried += 1
            pattern_flips = 0
            for socket, bank, rows in self.targets:
                for _ in range(sweeps_per_pattern):
                    base = self._fit_pattern(pattern, rows)
                    if base is None:
                        continue
                    flips = run_pattern(self.dram, socket, bank, base, pattern)
                    report.activations += pattern.total_activations()
                    report.flips.extend(flips)
                    pattern_flips += len(flips)
            if pattern_flips:
                report.effective_patterns.append((pattern, pattern_flips))
        return report
