"""EPT entry encoding (Intel VT-x extended page tables).

64-bit entries: RWX permission bits at [2:0], the large-page bit at 7
(valid in PDEs), and the physical frame at bits [51:12].  The codec is
deliberately strict — the walker decodes raw DRAM bytes, and anything
can come back after a bit flip, so ``EptEntry.unpack`` never raises; the
*walker* decides what a corrupt entry means (usually a reachable-but-
wrong frame, the §5.4 security failure).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EptError

READ = 1 << 0
WRITE = 1 << 1
EXECUTE = 1 << 2
LARGE_PAGE = 1 << 7
#: An entry is present (usable) when any of R/W/X is set.
PRESENT = READ | WRITE | EXECUTE

#: Physical frame number field, bits [51:12].
ADDR_MASK = ((1 << 52) - 1) & ~((1 << 12) - 1)

ENTRY_BYTES = 8
ENTRIES_PER_PAGE = 512


@dataclass(frozen=True)
class EptEntry:
    """One decoded EPT entry."""

    value: int

    @classmethod
    def make(
        cls,
        target_hpa: int,
        *,
        readable: bool = True,
        writable: bool = True,
        executable: bool = True,
        large: bool = False,
    ) -> "EptEntry":
        if target_hpa % 4096 != 0:
            raise EptError(f"EPT target {target_hpa:#x} not 4 KiB aligned")
        if target_hpa & ~ADDR_MASK:
            raise EptError(f"EPT target {target_hpa:#x} exceeds 52-bit space")
        value = target_hpa & ADDR_MASK
        if readable:
            value |= READ
        if writable:
            value |= WRITE
        if executable:
            value |= EXECUTE
        if large:
            value |= LARGE_PAGE
        return cls(value)

    @classmethod
    def empty(cls) -> "EptEntry":
        return cls(0)

    @classmethod
    def unpack(cls, raw: bytes) -> "EptEntry":
        if len(raw) != ENTRY_BYTES:
            raise EptError(f"EPT entry must be {ENTRY_BYTES} bytes, got {len(raw)}")
        return cls(int.from_bytes(raw, "little"))

    def pack(self) -> bytes:
        return self.value.to_bytes(ENTRY_BYTES, "little")

    @property
    def present(self) -> bool:
        """Intel semantics: an entry is usable if any of R/W/X is set."""
        return bool(self.value & PRESENT)

    @property
    def readable(self) -> bool:
        return bool(self.value & READ)

    @property
    def writable(self) -> bool:
        return bool(self.value & WRITE)

    @property
    def executable(self) -> bool:
        return bool(self.value & EXECUTE)

    @property
    def large(self) -> bool:
        return bool(self.value & LARGE_PAGE)

    @property
    def target_hpa(self) -> int:
        return self.value & ADDR_MASK
