"""E19 — the wavefront backend's wall-clock claim: after ``skew(I,J,1)``
turns a 2-D Gauss-Seidel sweep's diagonal dependences into DOALL
hyperplane fronts, the ``source-par`` backend executes each front as one
flat strided slice (dispatched across the worker pool when fronts are
wide enough) and beats the scalar ``source`` emission while staying
bit-exact against the reference interpreter.

The assertions mirror the par-smoke acceptance bar: ``source-par`` at
least ``WAVEFRONT_MIN_SPEEDUP`` (1.2x) over ``source`` on the skewed
stencil, bit-exact everywhere.  Cholesky rides along as the
narrow-front counterexample — its triangular fronts shrink to nothing,
so only correctness is asserted there.  docs/PARALLEL.md has the
detection rule and the determinism argument.
"""

import os

from repro import obs
from repro.backend import bench_backends, run
from repro.codegen import generate_code
from repro.codegen.simplify import simplify_program
from repro.kernels import seidel_2d
from repro.transform.spec import parse_schedule

#: The E19 floor: source-par must beat the scalar source emission on the
#: skewed stencil, not tie it.
WAVEFRONT_MIN_SPEEDUP = 1.2


def _skewed_seidel():
    """seidel_2d after skew(I,J,1): outer loop walks anti-diagonal
    fronts, inner loop is DOALL at every fixed front."""
    sched = parse_schedule(seidel_2d(), "skew(I, J, 1)")
    generated = generate_code(sched.program, sched.matrix, sched.deps)
    skewed = simplify_program(generated.program)
    return skewed.with_body(skewed.body, name="seidel_2d_skewed")


def _rows_by_backend(program, params, repeat=2):
    jobs = int(os.environ.get("REPRO_PAR_JOBS", "0")) or None
    rows = bench_backends(
        program, params,
        backends=("reference", "source", "source-par"),
        repeat=repeat, par_jobs=jobs,
    )
    return {r.backend: r for r in rows}


def test_e19_skewed_seidel_wavefront_speedup(benchmark):
    p = _skewed_seidel()
    params = {"N": 256}
    by = _rows_by_backend(p, params)
    benchmark(run, p, params, backend="source-par")
    print("\n[E19] skewed seidel_2d N=256 backend comparison:")
    for name, r in by.items():
        tag = f"{r.speedup:8.2f}x" if r.speedup else "baseline"
        print(f"  {name:10s} {r.seconds * 1e3:9.3f} ms  {tag}  ok={r.ok}")
    assert all(r.ok is True and not r.error for r in by.values())
    assert by["source-par"].speedup >= WAVEFRONT_MIN_SPEEDUP * by["source"].speedup


def test_e19_cholesky_narrow_fronts_stay_exact(benchmark, chol):
    """Triangular nests have shrinking fronts — no speedup promise, but
    dispatch must never change the answer."""
    params = {"N": 64}
    by = _rows_by_backend(chol, params)
    benchmark(run, chol, params, backend="source-par")
    print("\n[E19] cholesky N=64 backend comparison:")
    for name, r in by.items():
        tag = f"{r.speedup:8.2f}x" if r.speedup else "baseline"
        print(f"  {name:10s} {r.seconds * 1e3:9.3f} ms  {tag}  ok={r.ok}")
    assert all(r.ok is True and not r.error for r in by.values())


def test_e19_front_metrics_emitted():
    """One source-par run emits the backend.wavefront.* telemetry the
    par-smoke trace artifact and `repro explain --phase wavefront` read."""
    p = _skewed_seidel()
    mem = obs.MemorySink()
    with obs.session(mem) as sess:
        run(p, {"N": 64}, backend="source-par")
        counters = dict(sess.counters)
        widths = sess.histograms.get("backend.wavefront.front_width")
    assert counters.get("backend.wavefront.fronts", 0) > 0
    assert widths is not None and widths.p50 >= 1
