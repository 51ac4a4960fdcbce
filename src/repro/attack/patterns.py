"""Hammering patterns (paper §7.1; Blacksmith's search space).

A :class:`HammerPattern` is one refresh-interval's worth of activation
order, expressed over *relative* row offsets inside a bank: aggressor
offsets (the rows hammered for effect) and decoy offsets (rows activated
only to occupy a TRR sampler's observation slots).  Blacksmith's insight
is that non-uniform frequencies and phases evade deployed samplers; the
pattern type captures exactly the knobs its search mutates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import AttackError


@dataclass(frozen=True)
class HammerPattern:
    """One periodic activation pattern.

    ``order`` lists, per period, which offset to activate at each slot;
    ``decoys`` flags the offsets that are sacrificial.  ``acts_per_round``
    activations are issued per call before the next REF opportunity.
    """

    aggressors: tuple[int, ...]
    decoys: tuple[int, ...] = ()
    order: tuple[int, ...] = ()
    rounds: int = 64

    def __post_init__(self) -> None:
        if not self.aggressors:
            raise AttackError("pattern needs at least one aggressor")
        if len(set(self.aggressors) & set(self.decoys)) != 0:
            raise AttackError("aggressors and decoys must be disjoint")
        if self.rounds <= 0:
            raise AttackError("rounds must be positive")
        if not self.order:
            # Default order: decoys first (landing in post-REF sampler
            # slots), then the aggressors round-robin.
            object.__setattr__(self, "order", tuple(self.decoys) + tuple(self.aggressors))
        known = set(self.aggressors) | set(self.decoys)
        if not set(self.order) <= known:
            raise AttackError("order references unknown offsets")

    @property
    def acts_per_round(self) -> int:
        return len(self.order)

    def total_activations(self) -> int:
        return self.acts_per_round * self.rounds

    @classmethod
    def random(
        cls,
        rng: random.Random,
        *,
        max_sides: int = 8,
        max_decoys: int = 4,
        max_rounds: int = 96,
        span: int = 24,
    ) -> "HammerPattern":
        """Blacksmith-style sampling of the pattern space."""
        sides = rng.randint(1, max_sides)
        decoy_count = rng.randint(0, max_decoys)
        base = rng.randint(0, 4)
        aggressors = sorted(
            rng.sample(range(base, base + span, 2), k=min(sides, span // 2))
        )
        decoy_pool = [
            o for o in range(base + span, base + span + 2 * max_decoys + 2)
        ]
        decoys = tuple(sorted(rng.sample(decoy_pool, k=decoy_count)))
        # Random phases: shuffle how aggressors interleave after decoys.
        body = list(aggressors) * rng.randint(1, 3)
        rng.shuffle(body)
        order = tuple(decoys) + tuple(body)
        return cls(
            aggressors=tuple(aggressors),
            decoys=decoys,
            order=order,
            rounds=rng.randint(8, max_rounds),
        )
