"""Parallelism analysis tests."""


import pytest

from repro.analysis import outer_parallel_unit_rows, parallel_loops
from repro.dependence import analyze_dependences
from repro.instance import Layout
from repro.ir import parse_program
from repro.kernels import gauss_seidel_1d
from repro.linalg import IntMatrix
from repro.transform.spec import parse_schedule


class TestParallelLoops:
    def test_independent_loop_is_parallel(self):
        p = parse_program("param N\nreal A(N)\ndo I = 1..N\n S1: A(I) = f(I)\nenddo")
        lay = Layout(p)
        deps = analyze_dependences(p)
        marks = parallel_loops(lay, IntMatrix.identity(1), deps)
        assert len(marks) == 1 and marks[0].is_parallel

    def test_recurrence_not_parallel(self):
        p = parse_program("param N\nreal A(0:N)\ndo I = 1..N\n S1: A(I) = A(I-1)\nenddo")
        lay = Layout(p)
        deps = analyze_dependences(p)
        marks = parallel_loops(lay, IntMatrix.identity(1), deps)
        assert not marks[0].is_parallel
        assert "S1->S1" in marks[0].carried

    def test_inner_loop_of_simplified_cholesky_parallel(self, simp_chol, simp_chol_layout):
        deps = analyze_dependences(simp_chol)
        marks = parallel_loops(simp_chol_layout, IntMatrix.identity(4), deps)
        by_var = {m.var: m for m in marks}
        assert not by_var["I"].is_parallel  # carries everything
        assert by_var["J"].is_parallel      # scaling updates independent

    def test_cholesky_update_loops(self, chol, chol_layout):
        deps = analyze_dependences(chol)
        marks = parallel_loops(chol_layout, IntMatrix.identity(7), deps)
        by_var = {m.var: m for m in marks}
        assert not by_var["K"].is_parallel
        assert by_var["I"].is_parallel  # column scaling is DOALL
        # the J/L update loops are DOALL within a K iteration
        assert by_var["J"].is_parallel
        assert by_var["L"].is_parallel


def transformed_marks(program, spec):
    schedule = parse_schedule(program, spec)
    return parallel_loops(schedule.layout, schedule.matrix, schedule.deps)


class TestSkewThenInterchange:
    """§7 on a transformed nest: after ``skew(I,S,f); permute(S,I)`` an
    in-place stencil's ``[t, -1]`` dependences (t ≥ 1) map to
    ``(f·t - 1, t)``.  With f = 1 the outer entry is ``0+``: the
    instances it leaves at zero are carried by the inner loop.  With
    f = 2 the outer loop carries them all."""

    def test_factor_1_inner_loop_carries_the_stencil(self):
        outer, inner = transformed_marks(gauss_seidel_1d(), "skew(I,S,1); permute(S,I)")
        assert inner.path == (0, 0)
        assert not outer.is_parallel
        assert not inner.is_parallel
        assert inner.carried == ("S1->S1",)

    def test_factor_2_inner_loop_is_doall(self):
        outer, inner = transformed_marks(gauss_seidel_1d(), "skew(I,S,2); permute(S,I)")
        assert not outer.is_parallel
        assert inner.is_parallel

    @pytest.mark.parametrize("factor, inner_doall", [(1, False), (2, True)])
    def test_hand_written_right_neighbour_read(self, factor, inner_doall):
        p = parse_program(
            "param N, T\nreal A(0:N+1)\n"
            "do T1 = 1..T\n do J = 1..N\n  S1: A(J) = A(J+1) + 1\n enddo\nenddo"
        )
        _, inner = transformed_marks(p, f"skew(J,T1,{factor}); permute(T1,J)")
        assert inner.is_parallel is inner_doall


class TestOuterParallelRows:
    def test_perfect_parallel_dimension(self):
        p = parse_program(
            "param N\nreal A(0:N+1,0:N+1)\n"
            "do I = 1..N\n do J = 1..N\n  S1: A(I,J) = A(I,J-1)\n enddo\nenddo"
        )
        lay = Layout(p)
        deps = analyze_dependences(p)
        rows = outer_parallel_unit_rows(lay, deps)
        assert [c.var for c in rows] == ["I"]

    def test_none_when_all_carried(self):
        p = parse_program(
            "param N\nreal A(0:N+1,0:N+1)\n"
            "do I = 1..N\n do J = 1..N\n  S1: A(I,J) = A(I-1,J-1)\n enddo\nenddo"
        )
        lay = Layout(p)
        deps = analyze_dependences(p)
        assert outer_parallel_unit_rows(lay, deps) == []
