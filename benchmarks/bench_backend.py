"""E16 — the lowering backend's wall-clock claim: compiling a
transformed nest to straight-line Python source beats the tree-walking
interpreter by an order of magnitude, and rewriting DOALL innermost
loops as NumPy slice assignments buys another integer factor on top.

The assertions mirror the acceptance bar: ``source`` at least 5x over
``reference`` and ``source-vec`` at least 1.5x over ``source`` on at
least one kernel (checked on Cholesky, the densest nest).  A stencil
(Jacobi) exercises the other vectorization shape: shifted reads,
invariant outer time loop.
"""

from repro.backend import bench_backends, run
from repro.kernels import cholesky, jacobi_1d

#: Loose thresholds for the headline speedups — CI runners are noisy;
#: the measured numbers (printed below, and the `kernel_run` ledger
#: workload) tell the real story.
SOURCE_MIN_SPEEDUP = 5.0
VEC_MIN_GAIN = 1.5


def _rows_by_backend(program, params, repeat=3):
    rows = bench_backends(program, params, repeat=repeat)
    return {r.backend: r for r in rows}


def test_e16_cholesky_backend_speedups(benchmark, chol):
    by = _rows_by_backend(chol, {"N": 60})
    benchmark(run, chol, {"N": 60}, backend="source-vec")
    print("\n[E16] Cholesky N=60 backend comparison:")
    for name, r in by.items():
        tag = f"{r.speedup:8.2f}x" if r.speedup else "baseline"
        print(f"  {name:10s} {r.seconds * 1e3:9.3f} ms  {tag}  ok={r.ok}")
    assert all(r.ok in (True, None) and not r.error for r in by.values())
    assert by["source"].speedup >= SOURCE_MIN_SPEEDUP
    assert by["source-vec"].speedup >= VEC_MIN_GAIN * by["source"].speedup


def test_e16_jacobi_stencil_vectorization(benchmark):
    p = jacobi_1d()
    params = {"N": 4000, "T": 30}
    by = _rows_by_backend(p, params, repeat=2)
    benchmark(run, p, params, backend="source-vec")
    print("\n[E16] Jacobi-1D N=4000 T=30 backend comparison:")
    for name, r in by.items():
        tag = f"{r.speedup:8.2f}x" if r.speedup else "baseline"
        print(f"  {name:10s} {r.seconds * 1e3:9.3f} ms  {tag}  ok={r.ok}")
    assert all(r.ok in (True, None) and not r.error for r in by.values())
    # a 1-D stencil is the vectorizer's best case: the whole inner loop
    # collapses to three shifted slice reads and one slice write
    assert by["source-vec"].speedup > by["source"].speedup


def test_e16_source_run_latency(benchmark, chol):
    """Lowering is cached: steady-state `run()` is pure execution."""
    run(chol, {"N": 40}, backend="source")  # populate the cache
    store = benchmark(run, chol, {"N": 40}, backend="source")
    assert store.arrays["A"].shape == (40, 40)
