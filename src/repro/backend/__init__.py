"""Execution backends: lower IR programs to compiled, optionally
vectorized and wavefront-parallel Python/NumPy source.

See docs/BACKENDS.md and docs/PARALLEL.md.  The public surface is
:func:`run` (execute a program with any registered backend),
:data:`BACKENDS` (the registry), :func:`bench_backends` (wall-clock
comparison with output cross-checks) and the lower-level
:func:`lower_program`.  The ``source-par`` backend's planning and
worker-pool knobs live in :mod:`repro.backend.wavefront`.
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
    from repro.backend.vectorize import VecPlan, doall_loop_vars, plan_vector_loop
    from repro.backend.wavefront import (
        FrontPlan, collect_front_plans, par_jobs, plan_front_loop,
        resolve_par_jobs,
    )

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.backend.lower": ("LoweredProgram", "lower_program"),
    "repro.backend.names": ("BACKENDS",),
    "repro.backend.runtime": (
        "BackendTiming", "bench_backends", "lower_cached", "run", "run_lowered",
        "time_backend",
    ),
    "repro.backend.vectorize": ("VecPlan", "doall_loop_vars", "plan_vector_loop"),
    "repro.backend.wavefront": (
        "FrontPlan", "collect_front_plans", "par_jobs", "plan_front_loop",
        "resolve_par_jobs",
    ),
})
