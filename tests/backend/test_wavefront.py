"""The source-par backend's correctness gauntlet: its flat-view emission
must be *bit-exact* against the reference interpreter on every front
shape (wide anti-diagonal fronts, shrinking triangular fronts, tiled
bodies that stay scalar), and must be exactly the source-vec emission
wherever no reference needs a flat view.  docs/PARALLEL.md carries the
argument these tests pin down: a DOALL front read in full before it is
written is the loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.backend import lower_program, run
from repro.codegen import generate_code
from repro.interp import ArrayStore, execute
from repro.interp.equivalence import outputs_close
from repro.ir import parse_program
from repro.kernels import (
    cholesky, fdtd_1d, gauss_seidel_1d, jacobi_1d, random_program, seidel_2d, trmm,
)
from repro.kernels.generator import SHAPES
from repro.transform.spec import parse_schedule


def _scheduled(program, spec):
    """Apply a transformation spec and return the rewritten program."""
    sched = parse_schedule(program, spec)
    return generate_code(sched.program, sched.matrix, sched.deps).program


def _assert_par_exact(p, params):
    base = ArrayStore(p, dict(params)).snapshot()
    ref, _ = execute(p, params, arrays=base)
    par = run(p, params, arrays=base, backend="source-par")
    for k, a in ref.arrays.items():
        assert np.array_equal(par.arrays[k], a), f"array {k} not bit-identical"
    assert par.scalars == ref.scalars


class TestBitExact:
    def test_skewed_seidel_2d(self):
        # the canonical wavefront: skew turns the diagonal dependence
        # pattern into wide DOALL anti-diagonal fronts (flat views)
        _assert_par_exact(_scheduled(seidel_2d(), "skew(I, J, 1)"), {"N": 13})

    def test_skewed_gauss_seidel_1d(self):
        # a single skew is not enough here (the inner distance-(0,1)
        # dependence survives); skew-then-permute exposes the band
        p = _scheduled(gauss_seidel_1d(), "skew(I, S, 2); permute(S, I)")
        _assert_par_exact(p, {"N": 9, "T": 5})

    def test_jacobi_1d_unskewed(self):
        # already-DOALL inner loops need no skew at all: each time step
        # is one front
        _assert_par_exact(jacobi_1d(), {"N": 24, "T": 6})

    def test_tiled_trmm(self):
        # tiling introduces non-unit strides and guard-heavy bounds;
        # those loops stay scalar and must still agree
        _assert_par_exact(_scheduled(trmm(), "tile(I, 8)"), {"N": 21})


@given(st.integers(0, 10_000), st.sampled_from(SHAPES))
@settings(max_examples=30, deadline=None)
def test_source_par_matches_reference_on_random_programs(seed, shape):
    """Whatever nest the generator produces — wavefront band or not —
    source-par must agree with the tree walker (the cross-backend fuzz
    oracle's claim, pinned as a property)."""
    p = random_program(seed, shape=shape)
    params = {name: 5 for name in p.params}
    base = ArrayStore(p, dict(params)).snapshot()
    ref, _ = execute(p, params, arrays=base)
    par = run(p, params, arrays=base, backend="source-par")
    assert outputs_close(ref.snapshot(), par.snapshot())
    assert set(par.scalars) == set(ref.scalars)


class TestNoWavefrontFallback:
    def test_unskewed_seidel_degrades_to_serial(self):
        """No DOALL band without the skew: lowering reports zero flat
        loops and the source-vec emission still runs correctly."""
        p = gauss_seidel_1d()
        lowered = lower_program(p, vectorize=True, parallel=True)
        assert lowered.parallel and lowered.flat_loops == 0
        params = {"N": 9, "T": 4}
        base = ArrayStore(p, dict(params)).snapshot()
        ref, _ = execute(p, params, arrays=base)
        par = run(p, params, arrays=base, backend="source-par")
        for k, a in ref.arrays.items():
            assert np.array_equal(par.arrays[k], a)

    def test_skewed_seidel_reports_wavefront_loop(self):
        p = _scheduled(seidel_2d(), "skew(I, J, 1)")
        with obs.collect_events() as events:
            lowered = lower_program(p, vectorize=True, parallel=True)
        flat = [
            ev for ev in events
            if ev.kind == "vectorize" and ev.attrs.get("mode") == "flat"
        ]
        assert lowered.flat_loops == lowered.vectorized_loops == 1
        assert [(ev.verdict, ev.attrs["loop"]) for ev in flat] == [("accept", "J")]
        assert "_fview(" in lowered.source and "_fread(" in lowered.source


def _body(lowered) -> str:
    """The emitted source without its ``# lowered from ...`` header."""
    header, _, body = lowered.source.partition("\n")
    assert header.startswith("# lowered from")
    return body


@pytest.mark.parametrize("kernel", [cholesky, fdtd_1d], ids=lambda k: k.__name__)
def test_source_par_is_source_vec_without_flat_references(kernel):
    """Where no reference varies in two dimensions, source-par emits the
    source-vec program verbatim: no dispatch, no closures."""
    p = kernel()
    par = lower_program(p, vectorize=True, parallel=True)
    vec = lower_program(p, vectorize=True)
    assert par.flat_loops == 0
    assert _body(par) == _body(vec)


def test_inner_doall_with_diagonal_read_inside_outer_doall_is_flat():
    """An innermost DOALL loop whose read varies in two dimensions, nested
    in another DOALL loop: the flat planner vectorizes it in place."""
    p = parse_program(
        """
        param N
        real A(N, N)
        real B(N, N)
        do I = 1, N
          do J = 1, N
            S1: A(I, J) = A(I, J) + 2 * B(J, J)
          enddo
        enddo
        """,
        "diag_read",
    )
    lowered = lower_program(p, vectorize=True, parallel=True)
    assert lowered.vectorized_loops == lowered.flat_loops == 1
    assert lowered.fallback_loops == 0
    assert "_fread(_a_B" in lowered.source
    assert "for J in" not in lowered.source
    assert lower_program(p, vectorize=True).vectorized_loops == 0
    _assert_par_exact(p, {"N": 7})
