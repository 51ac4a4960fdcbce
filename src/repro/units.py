"""Size and time units used throughout the Siloz reproduction.

All byte quantities in this code base are plain ``int`` counts of bytes;
all wall-clock quantities are ``float`` seconds unless a name says
otherwise (e.g. ``_ns`` suffixes in the DDR4 timing tables).  Keeping the
constants in one module avoids the classic off-by-2**10 bugs that plague
memory-geometry code.
"""

from __future__ import annotations

KiB: int = 1024
MiB: int = 1024 * KiB
GiB: int = 1024 * MiB
TiB: int = 1024 * GiB

#: Bytes covered by one x86-64 cache line.
CACHE_LINE: int = 64

#: Base (small) page size on x86-64.
PAGE_4K: int = 4 * KiB

#: Huge page size used to back guests (paper §5, "2 MiB host huge pages").
PAGE_2M: int = 2 * MiB

#: Gigantic page size discussed in paper §4.2.
PAGE_1G: int = 1 * GiB

#: DDR4 refresh window: every cell is refreshed within this period (§2.3).
REFRESH_WINDOW_MS: float = 64.0

MS: float = 1e-3
US: float = 1e-6
NS: float = 1e-9


def is_power_of_two(value: int) -> bool:
    """True for 1, 2, 4, 8, ...; False for zero, negatives and the rest."""
    return value > 0 and (value & (value - 1)) == 0


def fmt_bytes(n: int) -> str:
    """Human-readable byte count (binary units), e.g. ``fmt_bytes(1536 * MiB)
    == '1.5 GiB'``.  Exact integers print without a decimal point."""
    if n < 0:
        return "-" + fmt_bytes(-n)
    for unit, name in ((TiB, "TiB"), (GiB, "GiB"), (MiB, "MiB"), (KiB, "KiB")):
        if n >= unit:
            scaled = n / unit
            if scaled == int(scaled):
                return f"{int(scaled)} {name}"
            return f"{scaled:.6g} {name}"
    return f"{n} B"
