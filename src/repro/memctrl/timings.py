"""DDR4 timing parameters (JEDEC DDR4, paper Table 2's 2933 MHz parts).

All values are in nanoseconds.  The defaults model DDR4-2933 with
typical server CAS latencies; exact vendor values differ by fractions of
a nanosecond, which is irrelevant for the paper's *relative* claims
(Siloz-vs-baseline ratios).  Crucially, the DDR standard specifies that
access timings do **not** vary across subarrays (§7.4), which this model
honours by construction: timing depends only on bank/row-buffer state,
never on row or subarray index.

**The tick-grid contract.**  Every timing constant must sit on a grid of
``1 / TICKS_PER_NS`` nanoseconds (a dyadic rational).  Sums, differences
and maxima of dyadic float64 values of this magnitude are *exact* IEEE
arithmetic — no rounding ever occurs — so float addition becomes
associative again and the vectorized controller pipeline
(:mod:`repro.memctrl.pipeline`, cumsum/running-max closed forms) is
bit-identical to the scalar reference loop by construction rather than
by luck.  ``__post_init__`` enforces the grid so a drive-by edit cannot
silently reintroduce rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import MemCtrlError

#: Timing resolution: 64 ticks per nanosecond (2**-6 ns grid).  Chosen
#: so every JEDEC quarter-nanosecond constant is representable and
#: quantized CPU gaps keep sub-2 % resolution at the shortest real gap.
TICKS_PER_NS: float = 64.0


def quantize_ns(value: float) -> float:
    """Snap *value* (ns) down onto the tick grid.

    ``floor(x * 64) / 64`` uses only exactly-rounded IEEE ops, so the
    scalar path (``math.floor``) and the numpy path (``np.floor``) agree
    bit for bit on every input.
    """
    return math.floor(value * TICKS_PER_NS) / TICKS_PER_NS


def _on_grid(value: float) -> bool:
    scaled = value * TICKS_PER_NS
    return scaled == math.floor(scaled)


@dataclass(frozen=True)
class DDR4Timings:
    """Timing set for one DRAM generation/speed bin (nanoseconds)."""

    #: Row activate to column command (RAS-to-CAS) delay.
    t_rcd: float = 13.75
    #: Row precharge time.
    t_rp: float = 13.75
    #: CAS latency (column command to first data).
    t_cl: float = 13.75
    #: Minimum row open time (activate to precharge).
    t_ras: float = 32.0
    #: Data burst occupancy of the channel for one 64 B line
    #: (8 beats at 2933 MT/s, snapped to the tick grid).
    t_burst: float = 2.75
    #: Average refresh interval per rank.
    t_refi: float = 7800.0
    #: Refresh cycle time (rank blocked).
    t_rfc: float = 350.0
    #: Extra latency for an access to the remote socket (QPI/UPI hop).
    t_remote: float = 60.0

    def __post_init__(self) -> None:
        for name in ("t_rcd", "t_rp", "t_cl", "t_ras", "t_burst", "t_refi", "t_rfc"):
            if getattr(self, name) <= 0:
                raise MemCtrlError(f"{name} must be positive")
        if self.t_remote < 0:
            raise MemCtrlError("t_remote must be non-negative")
        for name in (
            "t_rcd", "t_rp", "t_cl", "t_ras", "t_burst", "t_refi", "t_rfc", "t_remote",
        ):
            if not _on_grid(getattr(self, name)):
                raise MemCtrlError(
                    f"{name} must be a multiple of {1.0 / TICKS_PER_NS} ns "
                    "(the exact-arithmetic tick grid; see module docstring)"
                )

    @property
    def hit_latency(self) -> float:
        """Row-buffer hit: column access + burst."""
        return self.t_cl + self.t_burst

    @property
    def idle_latency(self) -> float:
        """Access to a precharged (idle) bank: activate + column."""
        return self.t_rcd + self.t_cl + self.t_burst

    @property
    def miss_latency(self) -> float:
        """Row-buffer miss (conflict): precharge + activate + column."""
        return self.t_rp + self.t_rcd + self.t_cl + self.t_burst

    @property
    def bank_hold(self) -> float:
        """How long an activate occupies the bank before the next
        command may issue (tRCD+burst, bounded below by tRAS-tRP)."""
        return max(self.t_rcd + self.t_burst, self.t_ras - self.t_rp)

    @classmethod
    def ddr4_2933(cls) -> "DDR4Timings":
        """Table 2's speed bin (the default)."""
        return cls()
