"""Dependence analysis against the paper's displayed matrices (E3, E8,
and the §5.4 example)."""

import pytest

from repro.dependence import DepKind, analyze_dependences
from repro.instance import Layout
from repro.ir import parse_program


def entry_strs(dep):
    return list(dep.entry_strs())


class TestSimplifiedCholesky:
    """Paper §3.  The displayed flow dependence S1->S2 is [0, 1, -1, +]."""

    def test_flow_s1_s2_exact_paper_column(self, simp_chol):
        m = analyze_dependences(simp_chol)
        flows = [d for d in m.between("S1", "S2")]
        assert len(flows) == 1
        assert entry_strs(flows[0]) == ["0", "1", "-1", "+"]
        assert flows[0].level is None  # loop-independent

    def test_backward_dependence_s2_s1(self, simp_chol):
        """The paper lists [1,-1,1,0]; memory-based analysis gives '+'
        in the carried position (same sign, wider).  One column per
        kind (flow/anti/output) with identical interval entries."""
        m = analyze_dependences(simp_chol)
        back = m.between("S2", "S1")
        assert back
        assert {tuple(entry_strs(d)) for d in back} == {("+", "-1", "1", "0")}
        assert all(d.level == "I" for d in back)

    def test_value_based_refinement_recovers_paper_column(self, simp_chol):
        """Dynamic value-based refinement recovers the paper's exact
        column [1,-1,1,0] for the S2->S1 flow."""
        from repro.dependence import DepKind, refine_dependences

        m = refine_dependences(simp_chol, analyze_dependences(simp_chol))
        flows = [d for d in m.between("S2", "S1") if d.kind == DepKind.FLOW]
        assert any(entry_strs(d) == ["1", "-1", "1", "0"] for d in flows)

    def test_self_dependences_of_s2(self, simp_chol):
        m = analyze_dependences(simp_chol)
        selfs = {tuple(entry_strs(d)) for d in m.self_deps("S2")}
        assert ("+", "0", "0", "0") in selfs

    def test_no_self_dependence_of_s1(self, simp_chol):
        m = analyze_dependences(simp_chol)
        assert m.self_deps("S1") == []

    def test_all_columns_lex_positive_in_source(self, simp_chol):
        """Every dependence of a sequential program points forward."""
        m = analyze_dependences(simp_chol)
        for d in m:
            sign = _lex_sign(d.entries)
            assert sign in ("positive", "zero-or-positive")


def _lex_sign(entries):
    from repro.legality import lex_scan

    return lex_scan(tuple(entries))[0]


class TestAugmentationExample:
    """Paper §5.4: D = [[1,1],[0,-1],[0,1],[1,-1]] — reproduced exactly."""

    def test_exact_matrix(self, aug):
        m = analyze_dependences(aug)
        cols = sorted(tuple(d.entry_strs()) for d in m)
        assert cols == [("1", "-1", "1", "-1"), ("1", "0", "0", "1")]

    def test_kinds(self, aug):
        m = analyze_dependences(aug)
        d_self = m.between("S1", "S1")[0]
        assert d_self.kind == DepKind.FLOW
        d_cross = m.between("S2", "S1")[0]
        assert d_cross.kind == DepKind.FLOW

    def test_arrays_attributed(self, aug):
        m = analyze_dependences(aug)
        assert m.between("S1", "S1")[0].array == "B"
        assert m.between("S2", "S1")[0].array == "A"


class TestCholesky:
    """Paper §6 matrix: our analyzer reproduces the paper's columns
    [0,0,1,-1,0,0,+], [0,1,-1,0,+,+,-] and [+,0,0,0,0,0,+] exactly, and
    finds the fourth ([1,...] in the paper) with '+' carried distance."""

    @pytest.fixture(scope="class")
    def matrix(self, chol):
        return analyze_dependences(chol)

    def test_paper_column_1(self, matrix):
        cols = {tuple(d.entry_strs()) for d in matrix}
        assert ("0", "0", "1", "-1", "0", "0", "+") in cols

    def test_paper_column_2(self, matrix):
        cols = {tuple(d.entry_strs()) for d in matrix}
        assert ("0", "1", "-1", "0", "+", "+", "-") in cols

    def test_paper_column_3_self(self, matrix):
        cols = {tuple(d.entry_strs()) for d in matrix}
        assert ("+", "0", "0", "0", "0", "0", "+") in cols

    def test_paper_column_4_direction(self, matrix):
        # paper: [1,-1,0,1,0,0,1] (value-based); ours widens 1 -> +
        back = matrix.between("S3", "S1")
        assert back, "S3->S1 dependence must exist"
        assert entry_strs(back[0])[1:4] == ["-1", "0", "1"]

    def test_every_statement_pair_covered(self, matrix):
        pairs = {(d.src, d.dst) for d in matrix}
        # the factorization chains S1->S2->S3 and back-edges to S1/S2
        assert ("S1", "S2") in pairs
        assert ("S2", "S3") in pairs
        assert ("S3", "S1") in pairs
        assert ("S3", "S2") in pairs
        assert ("S3", "S3") in pairs


class TestEdgeCases:
    def test_no_dependences_in_independent_loop(self):
        p = parse_program(
            "param N\nreal A(N), B(N)\ndo I = 1..N\n S1: A(I) = B(I) + 1\nenddo"
        )
        m = analyze_dependences(p)
        assert len(m) == 0

    def test_scalar_dependence(self):
        p = parse_program(
            "param N\nreal A(N)\ndo I = 1..N\n S1: acc = acc + A(I)\nenddo"
        )
        m = analyze_dependences(p)
        assert len(m) >= 1
        assert all(d.src == "S1" and d.dst == "S1" for d in m)

    def test_loop_independent_only(self):
        p = parse_program(
            "param N\nreal A(N), B(N)\ndo I = 1..N\n S1: A(I) = 1.0\n S2: B(I) = A(I)\nenddo"
        )
        m = analyze_dependences(p)
        flows = m.between("S1", "S2")
        assert len(flows) == 1
        assert flows[0].level is None

    def test_anti_dependence(self):
        p = parse_program(
            "param N\nreal A(0:N+1)\ndo I = 1..N\n S1: A(I) = A(I+1)\nenddo"
        )
        m = analyze_dependences(p)
        assert any(d.kind == DepKind.ANTI for d in m)

    def test_constant_distance(self):
        p = parse_program(
            "param N\nreal A(0:N)\ndo I = 1..N\n S1: A(I) = A(I-1)\nenddo"
        )
        m = analyze_dependences(p)
        assert len(m) == 1
        assert entry_strs(m.deps[0]) == ["1"]

    def test_rank_mismatch_rejected(self):
        from repro.util.errors import DependenceError

        p = parse_program(
            "param N\nreal A(N,N)\ndo I = 1..N\n S1: A(I,I) = 1.0\nenddo\n"
            "do J = 1..N\n S2: x = A(J)\nenddo"
        )
        with pytest.raises(DependenceError):
            analyze_dependences(p)

    def test_param_assumptions_can_kill_dependences(self):

        p = parse_program(
            "param N\nreal A(0:2*N)\ndo I = 1..N\n S1: A(I) = A(I+N)\nenddo"
        )
        # with N >= 1 unconstrained, anti dep possible (I' = I + N <= N
        # requires I <= 0: infeasible!) — actually never feasible
        m = analyze_dependences(p)
        assert m.between("S1", "S1") == []


class TestTraceCrossCheck:
    """Every ground-truth dependence observed by the interpreter must be
    covered by some symbolic dependence vector (soundness)."""

    @pytest.mark.parametrize("kernel", ["simp_chol", "chol", "aug"])
    def test_symbolic_covers_trace(self, kernel, request):
        program = request.getfixturevalue(kernel)
        _check_coverage(program, {"N": 6})


def _check_coverage(program, params):
    from repro.instance import DynamicInstance, instance_vector
    from repro.interp import execute, ground_truth_kinded

    layout = Layout(program)
    m = analyze_dependences(program)
    _, trace = execute(program, params, trace=True)
    gt = sorted({(a, b) for a, b, _ in ground_truth_kinded(trace)})
    recs = trace.records
    for a, b in gt:
        ra, rb = recs[a], recs[b]
        va = instance_vector(layout, _as_instance(layout, ra))
        vb = instance_vector(layout, _as_instance(layout, rb))
        diff = tuple(y - x for x, y in zip(va, vb))
        covered = any(
            d.src == ra.label
            and d.dst == rb.label
            and all(e.contains(x) for e, x in zip(d.entries, diff))
            for d in m
        )
        assert covered, (
            f"trace dependence {ra.label}{ra.env} -> {rb.label}{rb.env} "
            f"(diff {diff}) not covered by any symbolic dependence"
        )


def _as_instance(layout, rec):
    from repro.instance import DynamicInstance

    order = [c.var for c in layout.surrounding_loop_coords(rec.label)]
    return DynamicInstance(rec.label, tuple(rec.env[v] for v in order))


class TestSummaryErrors:
    """`_summarize` widens an entry to (-inf, +inf) only for the error
    `var_range` raises by design; a defect in the FM layer must surface."""

    def test_polyhedron_error_widens_the_entry(self, simp_chol, monkeypatch):
        from repro.polyhedra import System, engine
        from repro.util.errors import PolyhedronError

        def no_range(self, name):
            raise PolyhedronError("system is infeasible; no variable range")

        monkeypatch.setattr(System, "var_range", no_range)
        with engine.cache_disabled():
            m = analyze_dependences(simp_chol)
        assert any("*" in entry_strs(d) for d in m)

    def test_any_other_error_propagates(self, simp_chol, monkeypatch):
        from repro.polyhedra import System, engine

        def broken(self, name):
            raise ZeroDivisionError("a defect in the FM layer")

        monkeypatch.setattr(System, "var_range", broken)
        with engine.cache_disabled(), pytest.raises(ZeroDivisionError):
            analyze_dependences(simp_chol)
