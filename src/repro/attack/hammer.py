"""Pattern execution against the simulated DRAM (paper §7.1).

These primitives issue the raw ACT streams.  They operate on absolute
(bank-local) rows of one bank; offsets are clamped to the bank, matching
how a real attacker can only activate rows they can address.
"""

from __future__ import annotations

from repro.attack.patterns import HammerPattern
from repro.dram.disturbance import BitFlip
from repro.dram.module import SimulatedDram
from repro.errors import AttackError


def run_pattern(
    dram: SimulatedDram,
    socket: int,
    bank: int,
    base_row: int,
    pattern: HammerPattern,
    *,
    sync_ref: bool = True,
) -> list[BitFlip]:
    """Execute *pattern* with its offsets anchored at *base_row*.

    Offsets falling outside the bank are skipped (the attacker simply
    has no such row).  With ``sync_ref`` (the Blacksmith trick) and a
    pattern that has decoys, each round is aligned to the bank's next
    TRR REF opportunity by padding with decoy activations, so the
    sampler's deterministic post-REF observation slots see only decoys.
    Returns all flips induced."""
    geom = dram.geom
    rows = []
    for offset in pattern.order:
        row = base_row + offset
        if 0 <= row < geom.rows_per_bank:
            rows.append(row)
    if not rows:
        raise AttackError(f"pattern has no in-bank rows at base {base_row}")
    decoy_rows = [
        base_row + offset
        for offset in pattern.decoys
        if 0 <= base_row + offset < geom.rows_per_bank
    ]
    synchronize = sync_ref and decoy_rows and dram.trr is not None
    if not synchronize:
        # One batch for the whole pattern: the engine fast path (when
        # the module runs the vectorized backend) folds every round
        # into one tiled kernel.
        return dram.activate_batch(socket, bank, rows * pattern.rounds)
    flips: list[BitFlip] = []
    for _ in range(pattern.rounds):
        remaining = dram.acts_until_trr_ref(socket, bank)
        # Burn the tail of this REF window on decoys so the round
        # (decoys first, then aggressors) starts right after REF.
        batch = [decoy_rows[i % len(decoy_rows)] for i in range(remaining)]
        batch.extend(rows)
        flips.extend(dram.activate_batch(socket, bank, batch))
    return flips


def hammer_pattern_rows(
    dram: SimulatedDram,
    socket: int,
    bank: int,
    rows: list[int],
    *,
    rounds: int,
) -> list[BitFlip]:
    """Interleave ACTs over explicit *rows* for *rounds* passes."""
    if not rows:
        raise AttackError("need at least one row")
    for row in rows:
        dram.geom.check_row(row)
    return dram.activate_batch(socket, bank, rows * rounds)
