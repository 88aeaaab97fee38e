"""Final coverage sweep: unoptimized layouts, simplifier on real
generated code, search/compiled cross-checks."""

import numpy as np
import pytest

from repro.backend import run as run_source
from repro.codegen import generate_code
from repro.codegen.simplify import simplify_program
from repro.completion import complete_transformation
from repro.dependence import analyze_dependences
from repro.instance import DynamicInstance, Layout, instance_vector
from repro.interp import ArrayStore, execute, outputs_close
from repro.ir import program_to_str
from repro.kernels import cholesky, running_example
from repro.polyhedra import System, ge, var


class TestUnoptimizedLayouts:
    """Theorem 1 must hold with single-edge labels kept too."""

    def test_order_isomorphism_unoptimized(self):
        p = running_example()
        lay = Layout(p, optimize_single_edges=False)
        _, trace = execute(p, {"N": 5}, trace=True)
        insts = []
        for rec in trace.records:
            order = [c.var for c in lay.surrounding_loop_coords(rec.label)]
            insts.append(DynamicInstance(rec.label, tuple(rec.env[v] for v in order)))
        vectors = [instance_vector(lay, d) for d in insts]
        assert vectors == sorted(vectors)

    def test_unoptimized_dimension_larger(self, chol):
        opt = Layout(chol)
        raw = Layout(chol, optimize_single_edges=False)
        assert raw.dimension > opt.dimension


class TestSimplifierOnGeneratedCholesky:
    def test_left_looking_simplifies_clean(self, chol):
        deps = analyze_dependences(chol)
        lay = Layout(chol)
        res = complete_transformation(chol, [[0, 0, 0, 0, 0, 1, 0]], deps, layout=lay)
        g = generate_code(chol, res.matrix, deps)
        assume = System([ge(var("N"), 1)])
        simp = simplify_program(g.program, assume)
        text = program_to_str(simp, header=False)
        # pruning removed all guards and collapsed min/max noise
        assert "if (" not in text
        assert "min(2, 1)" not in text
        base = ArrayStore(chol, {"N": 8}).snapshot()
        s0, _ = execute(chol, {"N": 8}, arrays=base)
        s1, _ = execute(simp, {"N": 8}, arrays=base)
        assert outputs_close(s0.snapshot(), s1.snapshot())

    def test_simplified_runs_compiled(self, chol):
        deps = analyze_dependences(chol)
        lay = Layout(chol)
        res = complete_transformation(chol, [[0, 0, 0, 0, 0, 1, 0]], deps, layout=lay)
        g = generate_code(chol, res.matrix, deps)
        simp = simplify_program(g.program, System([ge(var("N"), 1)]))
        base = ArrayStore(chol, {"N": 8}).snapshot()
        fast = run_source(simp, {"N": 8}, arrays=base)
        ref = np.linalg.cholesky(base["A"])
        assert np.allclose(np.tril(fast.arrays["A"]), ref, rtol=1e-8)


class TestTransformationAPI:
    def test_then_dimension_mismatch(self, simp_chol_layout, chol_layout):
        from repro.transform import identity
        from repro.util.errors import TransformError

        with pytest.raises(TransformError):
            identity(simp_chol_layout).then(identity(chol_layout))

    def test_wrong_shape_matrix_rejected(self, simp_chol_layout):
        from repro.linalg import IntMatrix
        from repro.transform import Transformation
        from repro.util.errors import TransformError

        with pytest.raises(TransformError):
            Transformation(simp_chol_layout, IntMatrix.identity(3))

    def test_description_composes(self, simp_chol_layout):
        from repro.transform import compose, reversal, skew

        t = compose(skew(simp_chol_layout, "I", "J", 1), reversal(simp_chol_layout, "J"))
        assert "skew" in t.description and "reverse" in t.description

    def test_repr(self, simp_chol_layout):
        from repro.transform import identity

        assert "identity" in repr(identity(simp_chol_layout))


class TestSearchCrossCheck:
    def test_search_results_rerun_compiled(self):
        from repro.analysis import search_loop_orders

        results = search_loop_orders(cholesky(), {"N": 12})
        assert results
        base = ArrayStore(cholesky(), {"N": 12}).snapshot()
        ref = np.linalg.cholesky(base["A"])
        for r in results:
            fast = run_source(r.program, {"N": 12}, arrays=base)
            assert np.allclose(np.tril(fast.arrays["A"]), ref, rtol=1e-8), r.lead_var
