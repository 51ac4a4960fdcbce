"""Fast hot-path simulation engine (vectorized).

``SimBackend`` selects between the scalar golden-reference path and the
numpy fast path; ``run_activation_batch_vectorized`` is the batch entry
point behind :meth:`repro.dram.module.SimulatedDram.activate_batch`.

The vectorized names resolve lazily (PEP 562): the DRAM layer imports
``repro.engine.backend`` at module load, and importing the numpy engine
there would cycle back into ``repro.dram`` (and pull numpy into every
scalar-only run).
"""

from typing import Any

from repro.engine.backend import BackendError, SimBackend

_VECTOR_NAMES = (
    "VectorizedDisturbanceModel",
    "bulk_uniforms",
    "run_activation_batch_vectorized",
)

__all__ = [
    "BackendError",
    "SimBackend",
    *_VECTOR_NAMES,
]


def __getattr__(name: str) -> Any:
    if name in _VECTOR_NAMES:
        from repro.engine import vector

        return getattr(vector, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
