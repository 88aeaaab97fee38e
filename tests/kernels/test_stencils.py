"""Stencil/BLAS workloads: semantics and framework behaviour."""

import numpy as np
import pytest

from repro.analysis import outer_parallel_unit_rows, parallel_loops
from repro.codegen import generate_code
from repro.dependence import analyze_dependences
from repro.instance import Layout
from repro.interp import ArrayStore, check_equivalence, execute
from repro.kernels import (
    blur_2d, gauss_seidel_1d, gemver_like, jacobi_1d, syrk_like,
)
from repro.legality import check_legality
from repro.linalg import IntMatrix
from repro.transform import distribution_legal, permutation, skew


class TestSemantics:
    def test_blur_matches_numpy(self):
        p = blur_2d()
        base = ArrayStore(p, {"N": 8}).snapshot()
        store, _ = execute(p, {"N": 8}, arrays=base)
        a = base["A"]
        expected = (a[0:-2, 1:-1] + a[2:, 1:-1] + a[1:-1, 0:-2] + a[1:-1, 2:]) / 4
        assert np.allclose(store.arrays["B"][1:-1, 1:-1], expected)

    def test_jacobi_converges_towards_constant(self):
        p = jacobi_1d()
        init = {"A": np.zeros(12), "B": np.zeros(12)}
        init["A"][1:11] = 1.0
        store, _ = execute(p, {"N": 10, "T": 50}, arrays=init)
        inner = store.arrays["A"][1:11]
        assert inner.std() < 0.2  # smoothing towards the 0 boundaries

    def test_gemver_matvec_correct(self):
        p = gemver_like()
        base = ArrayStore(p, {"N": 6}).snapshot()
        store, _ = execute(p, {"N": 6}, arrays=base)
        a_updated = base["A"] + np.outer(base["U"], base["V"])
        assert np.allclose(store.arrays["A"], a_updated)
        assert np.allclose(store.arrays["X"], a_updated @ base["Y"], rtol=1e-9)

    def test_syrk_triangular(self):
        p = syrk_like()
        base = ArrayStore(p, {"N": 5}).snapshot()
        store, _ = execute(p, {"N": 5}, arrays=base)
        full = base["C"] + base["A"] @ base["A"].T
        tril = np.tril_indices(5)
        assert np.allclose(store.arrays["C"][tril], full[tril], rtol=1e-9)


class TestFrameworkBehaviour:
    def test_jacobi_sweeps_fusable(self):
        p = jacobi_1d()
        deps = analyze_dependences(p)
        # splitting the time loop is illegal (B feeds back into A)
        assert distribution_legal(deps, (0,), 1) is False

    def test_gauss_seidel_needs_skewing(self):
        """Neither loop of Gauss–Seidel is parallel; skewing the time
        loop by the space loop is legal (wavefront)."""
        p = gauss_seidel_1d()
        lay = Layout(p)
        deps = analyze_dependences(p)
        marks = parallel_loops(lay, IntMatrix.identity(lay.dimension), deps)
        assert not any(m.is_parallel for m in marks)
        t = skew(lay, "I", "S", 2)
        assert check_legality(lay, t.matrix, deps).legal

    def test_blur_fully_parallel(self):
        p = blur_2d()
        lay = Layout(p)
        deps = analyze_dependences(p)
        rows = outer_parallel_unit_rows(lay, deps)
        assert {c.var for c in rows} == {"I", "J"}

    def test_blur_interchange_verified(self):
        p = blur_2d()
        lay = Layout(p)
        deps = analyze_dependences(p)
        t = permutation(lay, "I", "J")
        g = generate_code(p, t.matrix, deps)
        rep = check_equivalence(p, g.program, {"N": 6}, env_map=g.env_map())
        assert rep["ok"]

    def test_gemver_k_loop_not_parallel(self):
        p = gemver_like()
        lay = Layout(p)
        deps = analyze_dependences(p)
        marks = {m.var: m for m in parallel_loops(lay, IntMatrix.identity(lay.dimension), deps)}
        assert not marks["K"].is_parallel  # reduction into X(I)
        assert marks["J"].is_parallel


class TestBuilderDSL:
    def test_builder_roundtrip(self):
        from repro.ir import nest, program_to_str, parse_program

        p = (
            nest("t", params=["N"])
            .array("A", "N")
            .loop("I", 1, "N")
            .stmt("S1", "A(I)", "f(I)")
            .end()
            .build()
        )
        text = program_to_str(p)
        assert program_to_str(parse_program(text, "t")) == text

    def test_builder_auto_labels(self):
        from repro.ir import nest

        p = (
            nest("t", params=["N"]).array("A", "N")
            .loop("I", 1, "N")
            .stmt("A(I)", "1.0")
            .stmt("A(I)", "2.0")
            .end()
            .build()
        )
        assert [s.label for s in p.statements()] == ["S1", "S2"]

    def test_builder_unclosed_loop_rejected(self):
        from repro.ir import nest
        from repro.util.errors import IRError

        b = nest("t", params=["N"]).array("A", "N").loop("I", 1, "N").stmt("A(I)", "1.0")
        with pytest.raises(IRError):
            b.build()

    def test_builder_empty_loop_rejected(self):
        from repro.ir import nest
        from repro.util.errors import IRError

        with pytest.raises(IRError):
            nest("t").loop("I", 1, 5).end()

    def test_builder_bad_lhs_rejected(self):
        from repro.ir import nest
        from repro.util.errors import IRError

        with pytest.raises(IRError):
            nest("t").loop("I", 1, 5).stmt("1 + 2", "3")
