"""Simulation-backend selection for the hot activation path.

Two backends drive the disturbance/TRR/refresh core of
:class:`~repro.dram.module.SimulatedDram`:

- ``SCALAR`` — the original per-access object-graph walk.  It is the
  *golden reference*: every fast-path result is defined as "whatever the
  scalar path would have produced".
- ``VECTORIZED`` — the :mod:`repro.engine.vector` numpy path: a batch
  that tiles a short hammer pattern folds its pressure and clock math
  into float64 array kernels, dropping to the exact scalar code only at
  RNG-consuming events (first-touch threshold draws, flip emission);
  every other batch (hooked, traced, short, TRR-enabled, non-periodic
  or crossing a refresh window) runs an inlined per-ACT loop.  It consumes the same RNG streams in the
  same order as the scalar path, so flip sets, TRR decisions, ECC
  events and health escalations are bit-for-bit identical (enforced by
  ``tests/test_differential.py``).

The enum deliberately lives in a dependency-free module so the DRAM
layer can import it without pulling the engine implementation (or
numpy) in.
"""

from __future__ import annotations

from enum import Enum

from repro.errors import ReproError


class BackendError(ReproError):
    """An unknown simulation backend was requested."""


class SimBackend(Enum):
    """Which implementation services the activation hot path."""

    SCALAR = "scalar"
    VECTORIZED = "vectorized"

    @classmethod
    def parse(cls, value: "SimBackend | str") -> "SimBackend":
        """Accept an enum member or its string name (CLI/config input)."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise BackendError(
                f"unknown simulation backend {value!r}; "
                f"choose from {[b.value for b in cls]}"
            ) from None
