"""The software-refresh alternative Siloz rejected (paper §8.3).

To protect EPT rows without guard rows, one could refresh them from
software every 1 ms.  The paper tried and found Linux cannot keep that
deadline: task scheduling guarantees only a *minimum* of 1 ms between
runs (gaps over 32 ms were observed), and even running from the timer
tick, ticks get delayed or dropped (idle dynticks, disabled interrupts).

This module is a discrete-event model of those two designs plus the
guard-row baseline, with empirically-shaped delay distributions.  The
benches replay it to reproduce the §8.3 numbers: missed deadlines under
both software schemes, none under guard rows (which need no scheduling).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum

from repro.errors import ReproError


class RefreshScheme(Enum):
    """The three EPT-protection scheduling designs compared in §8.3."""
    TIMER_TASK = "timer-task"  # schedule_delayed_work-style 1 ms task
    TICK_IRQ = "tick-irq"  # run during the periodic tick interrupt
    GUARD_ROWS = "guard-rows"  # no runtime component at all


@dataclass(frozen=True)
class JitterProfile:
    """Scheduling-delay behaviour of a busy production host.

    ``long_delay_prob`` models the §8.3 pathologies: runqueue pile-ups
    for tasks, delayed/dropped ticks for IRQs."""

    base_jitter_ms: float
    long_delay_prob: float
    long_delay_ms_min: float
    long_delay_ms_max: float

    @classmethod
    def task_scheduling(cls) -> "JitterProfile":
        # Linux guarantees >= 1 ms between runs; under load the gap
        # stretches, occasionally past 32 ms (§8.3).
        return cls(
            base_jitter_ms=0.4,
            long_delay_prob=0.004,
            long_delay_ms_min=8.0,
            long_delay_ms_max=40.0,
        )

    @classmethod
    def tick_irq(cls) -> "JitterProfile":
        # Much tighter, but ticks are still delayed (irqs off) or
        # dropped (dynticks) now and then.
        return cls(
            base_jitter_ms=0.05,
            long_delay_prob=0.001,
            long_delay_ms_min=2.0,
            long_delay_ms_max=12.0,
        )


@dataclass
class RefreshLog:
    """Outcome of one simulated run."""

    scheme: RefreshScheme
    deadline_ms: float
    intervals_ms: list[float] = field(default_factory=list)

    @property
    def refreshes(self) -> int:
        return len(self.intervals_ms)

    @property
    def missed_deadlines(self) -> int:
        return sum(1 for gap in self.intervals_ms if gap > self.deadline_ms)

    @property
    def miss_rate(self) -> float:
        if not self.intervals_ms:
            return 0.0
        return self.missed_deadlines / len(self.intervals_ms)

    @property
    def max_interval_ms(self) -> float:
        return max(self.intervals_ms) if self.intervals_ms else 0.0

    @property
    def min_interval_ms(self) -> float:
        return min(self.intervals_ms) if self.intervals_ms else 0.0

    @property
    def vulnerable(self) -> bool:
        """Any missed deadline leaves EPT rows hammerable in the gap."""
        return self.missed_deadlines > 0


def simulate_refresh(
    scheme: RefreshScheme,
    *,
    duration_s: float = 10.0,
    deadline_ms: float = 1.0,
    profile: JitterProfile | None = None,
    seed: int = 0,
) -> RefreshLog:
    """Run one scheme for *duration_s* of simulated time.

    GUARD_ROWS returns an empty, never-vulnerable log: there is nothing
    to schedule, which is precisely why Siloz chose it (§8.3).
    """
    if not (0 < duration_s < math.inf and 0 < deadline_ms < math.inf):
        raise ReproError("duration and deadline must be positive and finite")
    log = RefreshLog(scheme=scheme, deadline_ms=deadline_ms)
    if scheme is RefreshScheme.GUARD_ROWS:
        return log
    if profile is None:
        profile = (
            JitterProfile.task_scheduling()
            if scheme is RefreshScheme.TIMER_TASK
            else JitterProfile.tick_irq()
        )
    rng = random.Random(seed)
    now_ms = 0.0
    duration_ms = duration_s * 1000.0
    period_ms = deadline_ms  # the routine is armed at the deadline rate
    while now_ms < duration_ms:
        if rng.random() < profile.long_delay_prob:
            delay = rng.uniform(profile.long_delay_ms_min, profile.long_delay_ms_max)
        else:
            delay = abs(rng.gauss(0.0, profile.base_jitter_ms / 3))
        if scheme is RefreshScheme.TIMER_TASK:
            # Linux semantics: *at least* the period elapses (§8.3).
            gap = period_ms + delay
        else:
            gap = max(period_ms * 0.5, period_ms + delay - profile.base_jitter_ms / 2)
        log.intervals_ms.append(gap)
        now_ms += gap
    return log


def compare_schemes(
    *, duration_s: float = 10.0, deadline_ms: float = 1.0, seed: int = 0
) -> dict[RefreshScheme, RefreshLog]:
    """All three schemes under identical conditions (the §8.3 study)."""
    return {
        scheme: simulate_refresh(
            scheme, duration_s=duration_s, deadline_ms=deadline_ms, seed=seed
        )
        for scheme in RefreshScheme
    }
