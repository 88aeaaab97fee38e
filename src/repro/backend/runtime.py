"""Backend registry and the single execution entry point.

Four backends run any IR program against the same
:class:`~repro.interp.ArrayStore` inputs:

``reference``
    The tree-walking interpreter (:func:`repro.interp.execute`) — the
    semantic ground truth every other backend is checked against.
``source``
    :mod:`repro.backend.lower` — the program is emitted as Python
    source, ``compile()``d once and run as native bytecode.  Bit-exact
    vs the reference.
``source-vec``
    ``source`` plus NumPy slice assignments for innermost DOALL loops
    (:mod:`repro.backend.vectorize`).  Equal up to floating-point
    reassociation in reductions — which DOALL loops do not have, so in
    practice also exact; the oracles still use the equivalence
    tolerance.
``source-par``
    ``source-vec`` plus wavefront execution
    (:mod:`repro.backend.wavefront`): the outermost DOALL loop of each
    subtree is dispatched as chunked fronts over a worker pool, with a
    barrier between fronts and deterministic chunk order — bit-exact
    for any ``--par-jobs`` value.  Programs with no wavefront band
    degrade to the serial ``source-vec`` emission.

:func:`run` is the one entry point; :func:`bench_backends` times all of
them on identical inputs and cross-checks their outputs.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import OrderedDict
from dataclasses import dataclass
from threading import Lock
from typing import Callable, Mapping

import numpy as np

from repro.backend.lower import LoweredProgram, lower_program
from repro.backend.names import BACKENDS
from repro.backend.wavefront import par_jobs as _par_jobs_ctx
from repro.interp.equivalence import outputs_close
from repro.interp.executor import ArrayStore, execute
from repro.ir.ast import Program
from repro.obs import counter, span
from repro.util.errors import BackendError, InterpError, ReproError

__all__ = [
    "BACKENDS", "run", "run_lowered", "lower_cached", "bench_backends",
    "BackendTiming", "time_backend", "MIN_TIMING_REPS",
]

# Lowering cache: keyed by id(program) — safe because each cached
# LoweredProgram keeps a strong reference to its Program, so an id
# cannot be reused while its entry is alive.  Bounded LRU.
_CACHE_SIZE = 64
_lower_cache: "OrderedDict[tuple[int, bool, bool], LoweredProgram]" = OrderedDict()
_lower_lock = Lock()


def lower_cached(
    program: Program, *, vectorize: bool = False, parallel: bool = False, deps=None
) -> LoweredProgram:
    """Lower ``program``, memoizing on program identity."""
    key = (id(program), bool(vectorize), bool(parallel))
    with _lower_lock:
        hit = _lower_cache.get(key)
        if hit is not None:
            _lower_cache.move_to_end(key)
            counter("backend.lower_cache_hits")
            return hit
    low = lower_program(program, vectorize=vectorize, parallel=parallel, deps=deps)
    with _lower_lock:
        _lower_cache[key] = low
        while len(_lower_cache) > _CACHE_SIZE:
            _lower_cache.popitem(last=False)
    return low


def run(
    program: Program,
    params: Mapping[str, int] | None = None,
    arrays: Mapping[str, np.ndarray] | None = None,
    *,
    backend: str = "source",
    init: Callable | None = None,
    deps=None,
    par_jobs: int | None = None,
) -> ArrayStore:
    """Execute ``program`` with the chosen backend; returns the final store.

    ``arrays`` overrides initial contents (copied, never mutated), same
    contract as :func:`repro.interp.execute`.  ``deps`` optionally reuses
    a precomputed dependence matrix for ``source-vec``/``source-par``
    lowering.  ``par_jobs`` sets the ``source-par`` worker count
    (default: the ``REPRO_PAR_JOBS`` environment variable, then one per
    CPU); other backends ignore it.
    """
    if backend not in BACKENDS:
        raise BackendError(f"unknown backend {backend!r}; known: {list(BACKENDS)}")
    counter(f"backend.runs.{backend}")
    if backend == "reference":
        store, _ = execute(program, params, arrays, init=init)
        return store
    parallel = backend == "source-par"
    lowered = lower_cached(
        program,
        vectorize=backend in ("source-vec", "source-par"),
        parallel=parallel,
        deps=deps,
    )
    return run_lowered(lowered, params, arrays, init=init, par_jobs=par_jobs)


def run_lowered(
    lowered: LoweredProgram,
    params: Mapping[str, int] | None = None,
    arrays: Mapping[str, np.ndarray] | None = None,
    *,
    init: Callable | None = None,
    par_jobs: int | None = None,
) -> ArrayStore:
    """Execute an already-lowered program against fresh inputs."""
    params = dict(params or {})
    store = ArrayStore(lowered.program, params, init)
    if arrays:
        for k, v in arrays.items():
            if k not in store.arrays:
                raise InterpError(f"unknown array {k!r} in initial values")
            if store.arrays[k].shape != v.shape:
                raise InterpError(
                    f"shape mismatch for {k}: {store.arrays[k].shape} vs {v.shape}"
                )
            store.arrays[k] = np.array(v, dtype=float)
    with span("backend.execute", program=lowered.program.name,
              vectorize=lowered.vectorize, parallel=lowered.parallel):
        try:
            if lowered.parallel:
                with _par_jobs_ctx(par_jobs):
                    lowered.fn(store.arrays, store.params, store.scalars)
            else:
                lowered.fn(store.arrays, store.params, store.scalars)
        except ZeroDivisionError:
            raise InterpError("division by zero during execution") from None
        except KeyError as exc:
            raise InterpError(f"unbound variable {exc.args[0]!r}") from None
        except IndexError as exc:
            raise InterpError(f"array index out of declared range: {exc}") from None
    return store


#: Measured rankings never trust fewer repetitions than this: a single
#: run is one scheduler hiccup away from reordering a whole search.
MIN_TIMING_REPS = 3


def time_backend(
    program: Program,
    params: Mapping[str, int] | None = None,
    arrays: Mapping[str, np.ndarray] | None = None,
    *,
    backend: str = "source",
    repeat: int = MIN_TIMING_REPS,
    deps=None,
    par_jobs: int | None = None,
) -> float:
    """Median wall clock of ``max(MIN_TIMING_REPS, repeat)`` runs, after
    one untimed warm-up (which also pays any lowering cost).

    This is the shared timing primitive behind every *ranking* decision
    (``search_loop_orders`` measured mode, the ``repro tune`` driver):
    the median of at least three repetitions, not a single run or a
    best-of, so one noisy repetition cannot reorder a search.
    """
    reps = max(MIN_TIMING_REPS, int(repeat))
    run(program, params, arrays=arrays, backend=backend, deps=deps,
        par_jobs=par_jobs)  # warm-up
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        run(program, params, arrays=arrays, backend=backend, deps=deps,
            par_jobs=par_jobs)
        times.append(time.perf_counter() - t0)
    counter(f"backend.timings.{backend}")
    return statistics.median(times)


@dataclass
class BackendTiming:
    """One row of a backend comparison: best-of-``repeat`` wall clock."""

    backend: str
    seconds: float
    speedup: float | None  # vs reference; None for the reference row
    ok: bool | None  # outputs match reference; True for the baseline row
    # (it trivially matches itself), None only for error rows — gates
    # must be able to tell "baseline" from "silently skipped".
    error: str = ""


def bench_backends(
    program: Program,
    params: Mapping[str, int],
    *,
    backends: tuple[str, ...] = BACKENDS,
    repeat: int = 3,
    rtol: float = 1e-9,
    par_jobs: int | None = None,
) -> list[BackendTiming]:
    """Time each backend on identical inputs and cross-check outputs.

    The reference backend is always run (first) to provide the baseline
    and the expected outputs.  Backend errors become rows with
    ``math.nan`` seconds and the message in ``error`` rather than
    raising, so one broken backend does not hide the others.
    """
    for b in backends:
        if b not in BACKENDS:
            raise BackendError(f"unknown backend {b!r}; known: {list(BACKENDS)}")
    params = dict(params)
    base = ArrayStore(program, params).snapshot()
    ordered = list(dict.fromkeys(("reference",) + tuple(backends)))
    ref_secs: float | None = None
    ref_out: dict[str, np.ndarray] | None = None
    rows: list[BackendTiming] = []
    with span("backend.bench", program=program.name, n=len(ordered)):
        for b in ordered:
            try:
                run(program, params, arrays=base, backend=b,
                    par_jobs=par_jobs)  # warm-up + lowering
                best = math.inf
                out = None
                for _ in range(max(1, repeat)):
                    t0 = time.perf_counter()
                    store = run(program, params, arrays=base, backend=b,
                                par_jobs=par_jobs)
                    best = min(best, time.perf_counter() - t0)
                    out = store.snapshot()
            except ReproError as exc:
                rows.append(BackendTiming(b, math.nan, None, None, str(exc)))
                continue
            if b == "reference":
                ref_secs, ref_out = best, out
                # The baseline trivially matches itself: report ok=True,
                # never None, so downstream gates can distinguish a
                # healthy baseline row from an error row they must not
                # silently skip.
                ok = True
                speedup = None
            else:
                ok = outputs_close(ref_out, out, rtol) if ref_out is not None else None
                speedup = (ref_secs / best) if ref_secs and best > 0 else None
            rows.append(BackendTiming(b, best, speedup, ok))
    return rows
