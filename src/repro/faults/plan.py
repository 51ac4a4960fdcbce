"""Declarative fault plans: *what* fails, *where*, and *when*.

A :class:`FaultPlan` is the replayable artifact of the fault-injection
harness: a fully explicit list of :class:`FaultSpec` entries, each
naming a fault kind, its media location, and its simulated-time trigger.
Plans are built either by hand or from the seeded generators
(:meth:`FaultPlan.ce_storm`), and every random choice is resolved at
*plan-construction* time — the plan that comes out is deterministic
data, so the injector replays it byte-identically and the same
generator arguments rebuild the same plan.

Fault kinds model the DRAM degradation modes a production host meets
after boot (HammerSim-style system-level fault modeling):

- ``STUCK_AT`` — a cell wedged at 0 or 1; every write is silently
  re-corrupted, so the row emits correctable errors forever.
- ``RETENTION_WEAK`` — a leaky cell that loses its charge every
  ``retention_s`` of simulated time (recurring correctable errors that
  scrubbing heals and the cell re-develops).
- ``LATE_REPAIR`` — a vendor row repair that *appears at runtime*,
  mapping a media row onto spare cells that may sit in a different
  subarray (the §6 isolation hazard, now dynamic).
- ``ECC_WORD`` — ``bits_in_word`` bits of one 64-bit word corrupted at
  once: 1 bit is a correctable error (CE-storm material), 2 bits an
  uncorrectable machine check, 3+ silent corruption.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum

from repro.dram.ecc import WORD_BITS
from repro.errors import ReproError


class FaultPlanError(ReproError):
    """A fault plan is malformed (bad kind parameters, bad schedule)."""


class FaultKind(Enum):
    """The degradation modes the injector can plant."""

    STUCK_AT = "stuck-at"
    RETENTION_WEAK = "retention-weak"
    LATE_REPAIR = "late-repair"
    ECC_WORD = "ecc-word"


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: kind + media location + trigger time.

    ``at_clock`` is the simulated time (seconds) at which the fault
    arms; the injector fires it on the first clock/activation hook at or
    after that instant.  Which other fields matter depends on ``kind``
    (validated in ``__post_init__``).
    """

    kind: FaultKind
    socket: int
    bank: int
    row: int
    at_clock: float = 0.0
    #: STUCK_AT / RETENTION_WEAK: the afflicted bit within the row.
    bit: int | None = None
    #: STUCK_AT: the value the cell is wedged at.
    stuck_value: int = 1
    #: RETENTION_WEAK: seconds until the armed cell decays (recurring).
    retention_s: float = 0.0
    #: LATE_REPAIR: the spare row the defective row is remapped onto.
    spare_row: int | None = None
    #: ECC_WORD: word index within the row, and the bit offsets (within
    #: the word) to corrupt simultaneously.
    word: int | None = None
    word_bits: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.at_clock < 0:
            raise FaultPlanError("at_clock must be non-negative")
        if min(self.socket, self.bank, self.row) < 0:
            raise FaultPlanError("socket/bank/row must be non-negative")
        if self.kind in (FaultKind.STUCK_AT, FaultKind.RETENTION_WEAK):
            if self.bit is None or self.bit < 0:
                raise FaultPlanError(f"{self.kind.value} fault needs a bit index")
            if self.kind is FaultKind.STUCK_AT and self.stuck_value not in (0, 1):
                raise FaultPlanError("stuck_value must be 0 or 1")
            if self.kind is FaultKind.RETENTION_WEAK and self.retention_s <= 0:
                raise FaultPlanError("retention_s must be positive")
        elif self.kind is FaultKind.LATE_REPAIR:
            if self.spare_row is None or self.spare_row < 0:
                raise FaultPlanError("late-repair fault needs a spare_row")
        elif self.kind is FaultKind.ECC_WORD:
            if self.word is None or self.word < 0:
                raise FaultPlanError("ecc-word fault needs a word index")
            if not self.word_bits:
                raise FaultPlanError("ecc-word fault needs at least one bit offset")
            if len(set(self.word_bits)) != len(self.word_bits):
                raise FaultPlanError("ecc-word bit offsets must be distinct")
            if any(not 0 <= b < WORD_BITS for b in self.word_bits):
                raise FaultPlanError(f"word bit offsets must be in [0, {WORD_BITS})")

    @property
    def row_bits(self) -> tuple[int, ...]:
        """Absolute bit indexes (within the row) this fault touches."""
        if self.kind is FaultKind.ECC_WORD:
            assert self.word is not None
            return tuple(self.word * WORD_BITS + b for b in self.word_bits)
        if self.bit is not None:
            return (self.bit,)
        return ()

    def describe(self) -> str:
        """One-line human summary used in transcripts and logs."""
        where = f"(s{self.socket} b{self.bank} r{self.row})"
        if self.kind is FaultKind.STUCK_AT:
            return f"stuck-at-{self.stuck_value} bit {self.bit} {where}"
        if self.kind is FaultKind.RETENTION_WEAK:
            return f"retention-weak bit {self.bit} ({self.retention_s}s) {where}"
        if self.kind is FaultKind.LATE_REPAIR:
            return f"late repair row {self.row} -> spare {self.spare_row} {where}"
        return f"ecc-word w{self.word} bits {list(self.word_bits)} {where}"


@dataclass
class FaultPlan:
    """An ordered, replayable schedule of faults.

    The ``seed`` records which RNG produced any generated specs; it is
    bookkeeping only — the specs themselves are fully explicit, so two
    plans with equal specs behave identically regardless of seed.
    """

    specs: list[FaultSpec] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        self.specs = sorted(self.specs, key=lambda s: s.at_clock)

    # ------------------------------------------------------------------
    # Generators (all randomness resolved here, at build time)
    # ------------------------------------------------------------------

    @classmethod
    def ce_storm(
        cls,
        socket: int,
        bank: int,
        row: int,
        *,
        errors: int,
        words_per_row: int,
        start: float = 0.0,
        interval: float = 0.004,
        seed: int = 0,
    ) -> "FaultPlan":
        """A correctable-error storm: *errors* single-bit ECC_WORD faults
        on one row, one every *interval* seconds, each in a distinct
        word (so no word ever accumulates two bits and machine-checks).
        The per-word bit offset is drawn once from ``seed``.
        """
        if errors <= 0:
            raise FaultPlanError("errors must be positive")
        if errors > words_per_row:
            raise FaultPlanError(
                f"cannot place {errors} single-bit errors in {words_per_row} "
                "distinct words"
            )
        if not 0 < interval < math.inf:
            raise FaultPlanError("interval must be positive and finite")
        rng = random.Random(seed)
        first_word = rng.randrange(words_per_row)
        specs = [
            FaultSpec(
                kind=FaultKind.ECC_WORD,
                socket=socket,
                bank=bank,
                row=row,
                at_clock=start + i * interval,
                word=(first_word + i) % words_per_row,
                word_bits=(rng.randrange(WORD_BITS),),
            )
            for i in range(errors)
        ]
        return cls(specs=specs, seed=seed)

    @classmethod
    def ue_storm(
        cls,
        socket: int,
        bank: int,
        row: int,
        *,
        errors: int,
        words_per_row: int,
        start: float = 0.0,
        interval: float = 0.004,
        seed: int = 0,
    ) -> "FaultPlan":
        """An uncorrectable-error storm: *errors* **two-bit** ECC_WORD
        faults on one row — each word machine-checks on its next scrub
        or read instead of correcting.  Distinct words, like
        :meth:`ce_storm`, so the UE count is exactly *errors*; the DIMM
        UE-storm chaos event drives the health monitor's ``ue_weight``
        escalation with this plan.
        """
        if errors <= 0:
            raise FaultPlanError("errors must be positive")
        if errors > words_per_row:
            raise FaultPlanError(
                f"cannot place {errors} two-bit errors in {words_per_row} "
                "distinct words"
            )
        if not 0 < interval < math.inf:
            raise FaultPlanError("interval must be positive and finite")
        rng = random.Random(seed)
        first_word = rng.randrange(words_per_row)
        specs = []
        for i in range(errors):
            first_bit = rng.randrange(WORD_BITS)
            second_bit = (first_bit + 1 + rng.randrange(WORD_BITS - 1)) % WORD_BITS
            specs.append(
                FaultSpec(
                    kind=FaultKind.ECC_WORD,
                    socket=socket,
                    bank=bank,
                    row=row,
                    at_clock=start + i * interval,
                    word=(first_word + i) % words_per_row,
                    word_bits=(first_bit, second_bit),
                )
            )
        return cls(specs=specs, seed=seed)
