"""The vectorised batch walk engine.

Compile a pointer-wired broadcast program **once** into flat arrays
(:func:`compile_dense` → :class:`DenseProgram`), then execute 10⁵–10⁶
client walks as array operations (:func:`run_batch` →
:class:`BatchRecords`) — bit-identical, walk for walk, to the scalar
:func:`~repro.client.protocol.object_walk` /
:func:`~repro.client.protocol.recovering_walk`, at orders of magnitude
their throughput. The engine is also registered as the ``"batch"``
engine of the :func:`repro.client.request` facade.
"""

from .batch import run_batch
from .bench import (
    format_engine_bench,
    run_engine_bench,
)
from .dense import DenseProgram, compile_dense
from .masks import materialise_outcomes
from .records import BatchRecords

__all__ = [
    "DenseProgram",
    "compile_dense",
    "run_batch",
    "BatchRecords",
    "materialise_outcomes",
    "run_engine_bench",
    "format_engine_bench",
]
