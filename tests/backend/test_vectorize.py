"""Vectorization planning: DOALL verdicts gate it, syntactic legality
conditions on subscripts/values decide slice-assignment emission, and
``_vslice`` reproduces the per-iteration index walk exactly."""

from pathlib import Path

import numpy as np
import pytest

from repro.analysis.parallel import doall_loops
from repro.backend import lower_program, plan_vector_loop, run
from repro.backend.lower import _vslice
from repro.interp import ArrayStore, execute
from repro.ir import parse_program
from repro.ir.ast import Loop, Statement
from repro.kernels import cholesky, gauss_seidel_1d, jacobi_1d


def inner_loop(program):
    """The unique innermost loop of a single-nest program."""
    node = program.body[0]
    while True:
        children = [c for c in node.body if isinstance(c, Loop)]
        if not children:
            return node
        node = children[0]


def doall_loop_vars(program) -> set[str]:
    """Names of the loops :func:`doall_loops` marks DOALL."""
    out = set()
    for path in doall_loops(program):
        node = program.body[path[0]]
        for j in path[1:]:
            node = node.body[j]
        out.add(node.var)
    return out


def plan_for(src: str):
    p = parse_program(src)
    loop = inner_loop(p)
    scope = frozenset(p.params) | {
        n.var for n in _ancestors(p.body[0], loop)
    }
    return plan_vector_loop(loop, scope, {d.name: d for d in p.arrays})


def _ancestors(root, target):
    if root is target:
        return []
    for c in root.body:
        if isinstance(c, Loop):
            below = _ancestors(c, target)
            if below is not None:
                return [root] + below
    return None


class TestDoallVerdicts:
    def test_cholesky_doall_set(self):
        assert doall_loop_vars(cholesky()) == {"I", "J", "L"}

    def test_gauss_seidel_has_none(self):
        # every loop carries a dependence as written — nothing vectorizes
        assert doall_loop_vars(gauss_seidel_1d()) == frozenset()

    def test_skewed_wavefront_inner_loop_is_doall(self):
        # The skewed+permuted Gauss-Seidel wavefront: its min/max loop
        # bounds used to make dependence analysis bail (conservatively
        # reporting nothing DOALL); multi-term BoundSet bounds now
        # translate exactly, so the genuinely parallel wavefront inner
        # loop is proven DOALL (cross-backend agreement is pinned in
        # tests/transform/test_tiling.py-style equivalence runs).
        from repro.codegen import generate_code
        from repro.dependence import analyze_dependences
        from repro.instance import Layout
        from repro.transform import compose, permutation, skew

        p = gauss_seidel_1d()
        lay = Layout(p)
        deps = analyze_dependences(p)
        t = compose(skew(lay, "I", "S", 2), permutation(lay, "S", "I"))
        g = generate_code(p, t.matrix, deps)
        assert doall_loop_vars(g.program) == {"S2"}
        low = lower_program(g.program, vectorize=True)
        assert low.vectorized_loops == 1


class TestPlanConditions:
    def test_stencil_loop_plans(self):
        plan = plan_for(
            "param N\nreal A(0:N+1)\nreal B(0:N+1)\n"
            "do I = 1..N\n  S1: A(I) = (B(I - 1) + B(I + 1)) * 0.5\nenddo"
        )
        assert plan is not None and plan.var == "I" and not plan.needs_iota

    def test_loop_var_in_value_position_needs_iota(self):
        plan = plan_for(
            "param N\nreal A(N)\n"
            "do I = 1..N\n  S1: A(I) = A(I) + f(I)\nenddo"
        )
        assert plan is not None and plan.needs_iota

    def test_scalar_read_rejected(self):
        # dependence analysis does not track scalars: must stay scalar
        assert plan_for(
            "param N\nreal A(N)\n"
            "do I = 1..N\n  S1: t = 2.0\n  S2: A(I) = t\nenddo"
        ) is None

    def test_nonaffine_subscript_rejected(self):
        assert plan_for(
            "param N\nreal A(0:N)\nreal B(0:N)\n"
            "do I = 1..N\n  S1: A(I) = B(mod(I, 2))\nenddo"
        ) is None

    def test_two_varying_dims_rejected(self):
        # A(I, I) is a diagonal, not a strided slice
        assert plan_for(
            "param N\nreal A(N, N)\n"
            "do I = 1..N\n  S1: A(I, I) = 1.0\nenddo"
        ) is None

    def test_invariant_lhs_rejected(self):
        # every iteration writes the same cell: not DOALL-shaped anyway,
        # and the LHS must vary in exactly one dimension
        assert plan_for(
            "param N\nreal A(N)\nreal B(N)\n"
            "do I = 1..N\n  S1: A(1) = B(I)\nenddo"
        ) is None

    def test_nonunit_step_rejected(self):
        p = parse_program(
            "param N\nreal A(N)\ndo I = 1..N\n  S1: A(I) = 1.0\nenddo"
        )
        loop = p.body[0]
        stepped = Loop.make(loop.var, 1, 7, list(loop.body), step=2)
        assert plan_vector_loop(
            stepped, frozenset({"N"}), {d.name: d for d in p.arrays}
        ) is None


class TestVectorizedExecution:
    @pytest.mark.parametrize("factory,params,expect_vec", [
        (cholesky, {"N": 10}, 2),
        (jacobi_1d, {"N": 12, "T": 5}, 2),
        (gauss_seidel_1d, {"N": 10, "T": 4}, 0),
    ], ids=["cholesky", "jacobi_1d", "gauss_seidel_1d"])
    def test_matches_reference_within_tolerance(self, factory, params, expect_vec):
        p = factory()
        low = lower_program(p, vectorize=True)
        assert low.vectorized_loops == expect_vec
        base = ArrayStore(p, dict(params)).snapshot()
        ref, _ = execute(p, params, arrays=base)
        vec = run(p, params, arrays=base, backend="source-vec")
        for k, a in ref.arrays.items():
            np.testing.assert_allclose(vec.arrays[k], a, rtol=1e-9, atol=1e-12)

    def test_negative_coefficient_subscript(self):
        # B(N - I) reads backwards: exercises the negative-stride slice
        src = (
            "param N\nreal A(N)\nreal B(0:N)\n"
            "do I = 1..N\n  S1: A(I) = B(N - I) + f(I)\nenddo"
        )
        p = parse_program(src)
        low = lower_program(p, vectorize=True)
        assert low.vectorized_loops == 1
        ref, _ = execute(p, {"N": 9})
        vec = run(p, {"N": 9}, backend="source-vec")
        np.testing.assert_allclose(vec.arrays["A"], ref.arrays["A"], rtol=1e-9)


class TestVsliceSemantics:
    @pytest.mark.parametrize("lo,hi,c,off", [
        (0, 5, 1, 0), (2, 7, 1, 3), (1, 4, 2, -1),
        (0, 5, -1, 5), (1, 6, -1, 6), (0, 3, -2, 6),
        (3, 2, 1, 0),  # empty range
    ])
    def test_matches_pointwise_indexing(self, lo, hi, c, off):
        arr = np.arange(40.0)
        want = [arr[c * v + off] for v in range(lo, hi + 1)]
        got = arr[_vslice(lo, hi, c, off)]
        assert got.tolist() == want

    def test_negative_stride_reaching_index_zero(self):
        # stop would be -1, which plain slicing reads as "before the
        # last element" — _vslice must map it to None
        arr = np.arange(6.0)
        got = arr[_vslice(0, 5, -1, 5)]
        assert got.tolist() == [5.0, 4.0, 3.0, 2.0, 1.0, 0.0]


GOLDEN = Path(__file__).resolve().parents[1] / "golden"


class TestVerdictJoin:
    @pytest.mark.parametrize("backend", ["source-vec", "source-par"])
    def test_same_named_sibling_loops(self, backend):
        # the first I loop is DOALL, the second carries C(I-1) -> C(I):
        # a verdict keyed by loop name vectorized both
        p = parse_program((GOLDEN / "same_name_loops.loop").read_text())
        params = {"N": 6}
        base = ArrayStore(p, dict(params)).snapshot()
        ref, _ = execute(p, params, arrays=base)
        got = run(p, params, arrays=base, backend=backend)
        for name, want in ref.arrays.items():
            assert np.array_equal(got.arrays[name], want), name
        assert lower_program(p, vectorize=True).vectorized_loops == 1

    def test_generated_program_takes_its_verdicts_from_the_schedule(self):
        from repro import obs
        from repro.codegen import generate_code
        from repro.transform import parse_schedule

        # §3 refuses the tile hull bounds of the generated cholesky;
        # M·D marks its I, J and L loops DOALL
        s = parse_schedule(cholesky(), "tile(K,4)")
        g = generate_code(s.program, s.matrix, s.deps).program
        with obs.session() as sess, obs.collect_events() as events:
            low = lower_program(g, vectorize=True)
        assert low.vectorized_loops == 2
        assert sess.counters.get("backend.doall_derived") == 1
        assert "backend.doall_analysis_failures" not in sess.counters
        assert {e.attrs.get("basis") for e in events if "loop" in e.attrs
                and "target" not in e.attrs} == {"schedule"}
        params = {"N": 9}
        base = ArrayStore(s.source, dict(params)).snapshot()
        ref, _ = execute(s.source, params, arrays=base)
        got = run(g, params, arrays=base, backend="source-vec")
        for name, want in ref.arrays.items():
            assert np.allclose(got.arrays[name], want, rtol=1e-12), name
