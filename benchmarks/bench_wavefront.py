"""E19 — the wavefront backend's wall-clock claim: after ``skew(I,J,1)``
turns a 2-D Gauss-Seidel sweep's diagonal dependences into DOALL
hyperplane fronts, the ``source-par`` backend executes each front as one
NumPy assignment through flat strided views and beats the scalar
``source`` emission while staying bit-exact against the reference
interpreter.

The asserts are the gate: ``source-par`` at least
``WAVEFRONT_MIN_SPEEDUP`` (1.2x) over ``source`` on the skewed stencil,
bit-exact everywhere.  Cholesky rides along as the narrow-front
counterexample — no reference there needs a flat view, so only
correctness is asserted.  docs/PARALLEL.md has the flat-view rule and
the argument for it.
"""

from repro import obs
from repro.backend import bench_backends, lower_program, run
from repro.codegen import generate_code
from repro.kernels import seidel_2d
from repro.transform.spec import parse_schedule

#: The E19 floor: source-par must beat the scalar source emission on the
#: skewed stencil, not tie it.
WAVEFRONT_MIN_SPEEDUP = 1.2


def _skewed_seidel():
    """seidel_2d after skew(I,J,1): outer loop walks anti-diagonal
    fronts, inner loop is DOALL at every fixed front."""
    sched = parse_schedule(seidel_2d(), "skew(I, J, 1)")
    return generate_code(
        sched.program, sched.matrix, sched.deps, name="seidel_2d_skewed"
    ).program


def _rows_by_backend(program, params, repeat=2):
    rows = bench_backends(
        program, params,
        backends=("reference", "source", "source-par"),
        repeat=repeat,
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


def test_e19_flat_loop_reported():
    """Lowering the skewed stencil for source-par reports its front loop
    as a flat-view loop — the ``backend.flat_loops`` counter and the
    ``mode=flat`` vectorize event that `repro explain --phase vectorize`
    prints."""
    p = _skewed_seidel()
    with obs.session() as sess, obs.collect_events() as events:
        lowered = lower_program(p, vectorize=True, parallel=True)
        counters = dict(sess.counters)
    flat = [ev for ev in events
            if ev.kind == "vectorize" and ev.attrs.get("mode") == "flat"]
    assert lowered.flat_loops == counters["backend.flat_loops"] == 1
    assert [ev.attrs["loop"] for ev in flat if ev.verdict == "accept"] == ["J"]
