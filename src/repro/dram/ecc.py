"""Server ECC model (paper §2.5, §7.1).

Server DIMMs use SEC-DED codes per 64-bit word: a single flipped bit per
word is corrected (and logged — the signal Copy-on-Flip keys off, and the
side channel §3 warns about), two flipped bits are detected but
uncorrectable (machine-check material), three or more may escape
silently.  A patrol scrubber walks memory in the background so flips are
found even without demand reads — the paper leaves the system idle for
24 h so scrubbing catches stragglers (§7.1).

The model works on *flip sets* rather than codewords: the DRAM module
tracks exactly which bits differ from written data, so ECC's job reduces
to counting flipped bits per aligned 64-bit word.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro import obs
from repro.errors import DramError

#: Bits per ECC codeword (data portion).
WORD_BITS: int = 64

#: Flip sets at least this large take the vectorized word-count path
#: (bulk reads: migration snapshots, remediation scans, patrol scrub).
#: Below it the dict fold wins on constant factors.
VECTOR_BITS_CUTOFF: int = 32

def _words_and_counts(flipped_bit_indexes: set[int]) -> list[tuple[int, int]]:
    """``(word, flip count)`` pairs in ascending word order.

    The numpy path (``np.unique`` on ``bit // WORD_BITS``) returns
    exactly what the dict fold plus sort returns — both are exercised
    by the ECC tests on the same flip sets."""
    n = len(flipped_bit_indexes)
    if n >= VECTOR_BITS_CUTOFF:
        import numpy as np

        arr = np.fromiter(flipped_bit_indexes, dtype=np.int64, count=n)
        words, counts = np.unique(arr // WORD_BITS, return_counts=True)
        return list(zip(words.tolist(), counts.tolist()))
    by_word: dict[int, int] = {}
    for bit in flipped_bit_indexes:
        by_word[bit // WORD_BITS] = by_word.get(bit // WORD_BITS, 0) + 1
    return sorted(by_word.items())


class EccOutcome(Enum):
    """SEC-DED verdict for one 64-bit word."""
    CLEAN = "clean"
    CORRECTED = "corrected"
    UNCORRECTABLE = "uncorrectable"
    SILENT = "silent"  # >= 3 flips: miscorrection / undetected


@dataclass
class EccEvent:
    """One ECC observation on a word (socket, bank, row, word index)."""

    socket: int
    bank: int
    row: int
    word: int
    outcome: EccOutcome
    flipped_bits: int
    when: float


@dataclass
class EccStats:
    corrected: int = 0
    uncorrectable: int = 0
    silent: int = 0
    events: list[EccEvent] = field(default_factory=list)

    def record(self, event: EccEvent) -> None:
        """Fold one event into the counters and the event log."""
        if event.outcome is EccOutcome.CORRECTED:
            self.corrected += 1
        elif event.outcome is EccOutcome.UNCORRECTABLE:
            self.uncorrectable += 1
        elif event.outcome is EccOutcome.SILENT:
            self.silent += 1
        self.events.append(event)


def classify_word(flipped_bits: int) -> EccOutcome:
    """SEC-DED outcome for a word with *flipped_bits* flipped bits."""
    if flipped_bits < 0:
        raise DramError(f"flipped_bits must be non-negative, got {flipped_bits}")
    if flipped_bits == 0:
        return EccOutcome.CLEAN
    if flipped_bits == 1:
        return EccOutcome.CORRECTED
    if flipped_bits == 2:
        return EccOutcome.UNCORRECTABLE
    return EccOutcome.SILENT


class EccEngine:
    """Counts flips per 64-bit word and classifies SEC-DED outcomes.

    Listeners registered via :meth:`subscribe` receive every non-clean
    :class:`EccEvent` as it is classified — the EDAC/mcelog firehose the
    runtime health monitor (:mod:`repro.hv.health`) consumes."""

    def __init__(self) -> None:
        self.stats = EccStats()
        self._listeners: list = []

    def subscribe(self, listener) -> None:
        """Register a callable invoked with each new :class:`EccEvent`
        (corrected and uncorrectable alike) — the correctable-error
        reporting channel a kernel gets from EDAC."""
        self._listeners.append(listener)

    def unsubscribe(self, listener) -> None:
        """Remove a previously subscribed listener (no-op if absent)."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    def check_row_bits(
        self,
        socket: int,
        bank: int,
        row: int,
        flipped_bit_indexes: set[int],
        when: float,
    ) -> list[EccEvent]:
        """Classify every word of a row given its flipped-bit set.

        Returns events for non-clean words only (clean words are the
        overwhelming majority and not interesting to log)."""
        events = []
        for word, count in _words_and_counts(flipped_bit_indexes):
            outcome = classify_word(count)
            event = EccEvent(
                socket=socket,
                bank=bank,
                row=row,
                word=word,
                outcome=outcome,
                flipped_bits=count,
                when=when,
            )
            self.stats.record(event)
            events.append(event)
            if obs.ENABLED:
                obs.emit(
                    obs.EccWordEvent(
                        socket=socket,
                        bank=bank,
                        row=row,
                        word=word,
                        outcome=outcome.value,
                        flipped_bits=count,
                        when=when,
                    )
                )
            for listener in self._listeners:
                listener(event)
        return events

    def correctable_bits(self, flipped_bit_indexes: set[int]) -> set[int]:
        """The subset of flipped bits that SEC-DED would repair (exactly
        one flip in their word) — what a patrol scrub can heal."""
        n = len(flipped_bit_indexes)
        if n >= VECTOR_BITS_CUTOFF:
            import numpy as np

            arr = np.sort(np.fromiter(flipped_bit_indexes, dtype=np.int64, count=n))
            _words, first, counts = np.unique(
                arr // WORD_BITS, return_index=True, return_counts=True
            )
            return set(arr[first[counts == 1]].tolist())
        by_word: dict[int, list[int]] = {}
        for bit in flipped_bit_indexes:
            by_word.setdefault(bit // WORD_BITS, []).append(bit)
        healable: set[int] = set()
        for bits in by_word.values():
            if len(bits) == 1:
                healable.add(bits[0])
        return healable
