"""Execution backends: lower IR programs to compiled, optionally
vectorized Python/NumPy source.

See docs/BACKENDS.md and docs/PARALLEL.md.  The public surface is
:func:`run` (execute a program with any registered backend),
:data:`BACKENDS` (the registry), :func:`bench_backends` (wall-clock
comparison with output cross-checks) and the lower-level
:func:`lower_program`.
"""

from typing import TYPE_CHECKING

from repro.util.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.backend.lower import LoweredProgram, lower_program
    from repro.backend.names import BACKENDS
    from repro.backend.runtime import (
        BackendTiming, bench_backends, lower_cached, run, run_lowered,
        time_backend,
    )
    from repro.backend.vectorize import VecPlan, plan_vector_loop

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.backend.lower": ("LoweredProgram", "lower_program"),
    "repro.backend.names": ("BACKENDS",),
    "repro.backend.runtime": (
        "BackendTiming", "bench_backends", "lower_cached", "run", "run_lowered",
        "time_backend",
    ),
    "repro.backend.vectorize": ("VecPlan", "plan_vector_loop"),
})
