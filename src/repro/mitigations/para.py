"""PARA-style probabilistic adjacent-row activation (Kim et al., ISCA '14).

On every row activation the memory controller refreshes the
``distance``-neighbourhood of the activated row with a small
probability *p*.  No placement changes, no capacity cost — containment
is purely probabilistic: an aggressor performing *N* activations slips
past PARA with probability roughly ``(1 - p)^N`` per victim, so escapes
*must* reproduce at high hammer counts.  The attack-matrix tests assert
exactly that, seed-swept.

Determinism contract: the hook consumes **exactly one** RNG draw per
activation regardless of outcome, so the refresh stream is a pure
function of ``(seed, activation stream)`` — identical across backends
(the vectorized engine routes hooked ACTs through its scalar-faithful
per-ACT loop) and worker counts.
"""

from __future__ import annotations

import random

from repro.dram.module import DramHook, SimulatedDram
from repro.errors import MitigationError


class ParaRefreshHook(DramHook):
    """The PARA controller: probabilistic neighbour refresh per ACT."""

    def __init__(
        self,
        *,
        probability: float = 0.002,
        distance: int = 1,
        seed: int = 0,
    ):
        if not 0.0 < probability <= 1.0:
            raise MitigationError("probability must be in (0, 1]")
        if distance < 1:
            raise MitigationError("distance must be at least 1")
        self.probability = probability
        self.distance = distance
        self.rng = random.Random(f"para:{seed}")
        #: Neighbour refreshes issued (the mitigation's bandwidth cost).
        self.refreshes = 0

    def on_activate(
        self, dram: SimulatedDram, socket: int, bank: int, row: int
    ) -> None:
        """Flip a p-biased coin on this ACT; on heads, refresh the
        ``distance``-neighbourhood of the activated row.

        One draw per ACT, taken before any branching, keeps the RNG
        stream aligned with the activation stream."""
        if self.rng.random() >= self.probability:
            return
        for d in range(1, self.distance + 1):
            for victim in (row - d, row + d):
                if not 0 <= victim < dram.geom.rows_per_bank:
                    continue
                dram.disturbance.on_refresh_row(socket, bank, victim)
                self.refreshes += 1
