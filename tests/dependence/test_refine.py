"""Value-based dynamic refinement (recovering the paper's exact
distances)."""


from repro.dependence import (
    DepKind, analyze_dependences, observed_hulls, refine_dependences,
)
from repro.interp import execute, ground_truth_kinded
from repro.ir import parse_program


class TestGroundTruthKinded:
    def test_flow_is_last_writer(self):
        p = parse_program(
            "param N\nreal A(N)\n"
            "do I = 1..N\n S1: A(1) = f(I)\nenddo\n"
            "x = A(1)"
        )
        _, t = execute(p, {"N": 4}, trace=True)
        kinds = ground_truth_kinded(t)
        flows = [(a, b) for a, b, k in kinds if k == DepKind.FLOW]
        # the read (position 4) depends only on the LAST write (position 3)
        assert flows == [(3, 4)]

    def test_output_chains_consecutive(self):
        p = parse_program(
            "param N\nreal A(N)\ndo I = 1..N\n S1: A(1) = f(I)\nenddo"
        )
        _, t = execute(p, {"N": 4}, trace=True)
        outs = [(a, b) for a, b, k in ground_truth_kinded(t) if k == DepKind.OUTPUT]
        assert outs == [(0, 1), (1, 2), (2, 3)]

    def test_anti_read_to_next_write(self):
        p = parse_program(
            "param N\nreal A(N)\n"
            "x = A(1)\n"
            "do I = 1..N\n S2: A(1) = f(I)\nenddo"
        )
        _, t = execute(p, {"N": 3}, trace=True)
        antis = [(a, b) for a, b, k in ground_truth_kinded(t) if k == DepKind.ANTI]
        assert (0, 1) in antis
        assert (0, 2) not in antis  # only the *next* write


class TestRefinement:
    def test_paper_column_simplified_cholesky(self, simp_chol):
        m = refine_dependences(simp_chol, analyze_dependences(simp_chol))
        cols = {(d.kind, tuple(d.entry_strs())) for d in m}
        assert (DepKind.FLOW, ("1", "-1", "1", "0")) in cols

    def test_paper_column_cholesky(self, chol):
        m = refine_dependences(
            chol, analyze_dependences(chol), samples=({"N": 6}, {"N": 8})
        )
        cols = {tuple(d.entry_strs()) for d in m}
        # the paper's fourth §6 column, exactly
        assert ("1", "-1", "0", "1", "0", "0", "1") in cols

    def test_static_entries_never_widened(self, simp_chol):
        static = analyze_dependences(simp_chol)
        refined = refine_dependences(simp_chol, static)
        static_cols = {(d.src, d.dst, d.kind, d.entries) for d in static}
        for d in refined:
            # a refined column must be contained in some static column
            assert any(
                d.src == s and d.dst == t and d.kind == k
                and all(se.contains(e.lo) or e.lo != e.hi or se.contains(e.lo)
                        for se, e in zip(entries, d.entries))
                for s, t, k, entries in static_cols
            )

    def test_sample_variant_entries_keep_static(self, simp_chol):
        """Entries whose observed hull varies with N stay as the sound
        static interval (no sample-size constants leak)."""
        refined = refine_dependences(simp_chol, analyze_dependences(simp_chol))
        for d in refined:
            for e in d.entries:
                if e.is_constant():
                    assert abs(e.constant()) <= 1  # only true distances

    def test_unobserved_dependences_unchanged(self):
        # a dependence that needs N >= 20 to trigger is not observed at
        # N=6/9 and must survive refinement untouched
        p = parse_program(
            "param N\nreal A(0:N+20)\ndo I = 1..N\n S1: A(I+15) = A(I) + 1\nenddo"
        )
        static = analyze_dependences(p)
        refined = refine_dependences(p, static, samples=({"N": 6},))
        assert {d.entries for d in refined} == {d.entries for d in static}

    def test_refined_matrix_still_covers_traces(self, simp_chol):
        """Refinement must not lose coverage of value-based trace deps."""
        from repro.instance import DynamicInstance, Layout, instance_vector

        refined = refine_dependences(simp_chol, analyze_dependences(simp_chol))
        lay = Layout(simp_chol)
        _, t = execute(simp_chol, {"N": 7}, trace=True)
        for a, b, kind in ground_truth_kinded(t):
            ra, rb = t.records[a], t.records[b]

            def vec(rec):
                order = [c.var for c in lay.surrounding_loop_coords(rec.label)]
                return instance_vector(
                    lay, DynamicInstance(rec.label, tuple(rec.env[v] for v in order))
                )

            diff = tuple(y - x for x, y in zip(vec(ra), vec(rb)))
            assert any(
                d.src == ra.label and d.dst == rb.label and d.kind == kind
                and all(e.contains(x) for e, x in zip(d.entries, diff))
                for d in refined
            ), (ra.label, rb.label, kind, diff)


class TestObservedHulls:
    def test_hull_keys(self, simp_chol):
        hulls = observed_hulls(simp_chol, {"N": 5})
        assert ("S1", "S2", DepKind.FLOW) in hulls
        assert ("S2", "S1", DepKind.FLOW) in hulls

    def test_hull_dimension(self, simp_chol, simp_chol_layout):
        hulls = observed_hulls(simp_chol, {"N": 5}, simp_chol_layout)
        for h in hulls.values():
            assert len(h) == simp_chol_layout.dimension
