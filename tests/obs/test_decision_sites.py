"""Every instrumented decision point emits its documented events.

One test class per pipeline phase (legality, completion, vectorize,
tune, fuzz) plus the latency histograms (FM queries, codegen), and a
hypothesis property: an illegal transform on a random program always
leaves at least one ``legality`` reject event explaining why.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.dependence import analyze_dependences
from repro.instance import Layout
from repro.ir import parse_program
from repro.kernels import cholesky, random_program, simplified_cholesky
from repro.legality import check_legality
from repro.linalg import IntMatrix
from repro.polyhedra import System, engine, ge, le, var
from repro.transform import permutation, reversal, skew


class TestLegalityEvents:
    def test_reject_names_dependence_and_projection(self, mem):
        program = simplified_cholesky()
        layout = Layout(program)
        deps = analyze_dependences(program, layout=layout)
        t = permutation(layout, "I", "J")
        report = check_legality(layout, t.matrix, deps)

        assert not report.legal
        rejects = mem.events_for("legality", "reject")
        assert rejects, "illegal transform produced no reject event"
        dep_strs = {str(d) for d in deps}
        for ev in rejects:
            assert "Theorem 2" in ev.reason
            assert ev.attrs["dep"] in dep_strs  # names the offending dependence
            assert ev.attrs["projection"].startswith("(")
            assert ev.attrs["sign"]

    def test_legal_transform_emits_accepts_only(self, mem):
        program = simplified_cholesky()
        layout = Layout(program)
        deps = analyze_dependences(program, layout=layout)
        t = skew(layout, "J", "I", 1)
        report = check_legality(layout, t.matrix, deps)

        assert report.legal
        assert not mem.events_for("legality", "reject")
        accepts = mem.events_for("legality", "accept")
        assert len(accepts) == len(report.statuses)
        assert all("dep" in ev.attrs for ev in accepts)

    def test_structure_rejection_event(self, mem):
        program = simplified_cholesky()
        layout = Layout(program)
        deps = analyze_dependences(program, layout=layout)
        n = layout.dimension
        zero = IntMatrix([[0] * n for _ in range(n)])
        report = check_legality(layout, zero, deps)

        assert not report.legal
        rejects = mem.events_for("legality", "reject")
        assert any("block structure" in ev.reason for ev in rejects)


class TestCompletionEvents:
    def test_successful_completion_accepted_with_matrix(self, mem):
        from repro.completion import complete_transformation

        result = complete_transformation(simplified_cholesky())
        accepts = mem.events_for("complete", "accept")
        assert len(accepts) == 1
        assert accepts[0].attrs["matrix"] == str([list(r) for r in result.matrix])

    def test_unrealizable_lead_leaves_reject_trail(self, mem):
        from repro.completion.enabling import complete_with_restructuring
        from repro.util.errors import CompletionError

        with pytest.raises(CompletionError):
            complete_with_restructuring(cholesky(), "I")
        rejects = mem.events_for("complete", "reject")
        assert rejects
        # the backtracker names the row and dependence that clashed
        assert any("dep" in ev.attrs and "row" in ev.attrs for ev in rejects)
        # and the restructuring driver records each failed variant's moves
        assert any(ev.attrs.get("lead") == "I" for ev in rejects)


class TestVectorizeEvents:
    def test_per_loop_doall_verdicts(self, mem):
        from repro.backend.vectorize import doall_loop_vars

        doall = doall_loop_vars(cholesky())
        verdicts = {
            ev.attrs["loop"]: ev.verdict
            for ev in mem.events_for("vectorize")
            if "loop" in ev.attrs
        }
        assert set(verdicts) == {"K", "I", "J", "L"}
        assert {v for v, verdict in verdicts.items() if verdict == "accept"} == doall
        k_reject = next(
            ev for ev in mem.events_for("vectorize", "reject")
            if ev.attrs.get("loop") == "K"
        )
        # the disqualifying reason names the carried dependences
        assert "carries dependence" in k_reject.reason
        assert "S3->S3" in k_reject.reason

    def test_vectorized_loop_accept_names_target(self, mem):
        from repro.backend.lower import lower_program

        lowered = lower_program(cholesky(), vectorize=True)
        slice_accepts = [
            ev for ev in mem.events_for("vectorize", "accept")
            if "target" in ev.attrs
        ]
        assert len(slice_accepts) == lowered.vectorized_loops == 2
        assert {ev.attrs["target"] for ev in slice_accepts} == {
            "A(I, K)", "A(J, L)",
        }

    def test_reject_names_blocking_access(self, mem):
        from repro.backend.lower import lower_program

        # LHS varies with the loop in two subscript dimensions: no
        # single strided slice writes it, so the loop must stay scalar
        program = parse_program(
            """
            param N
            real A(N, N)
            do I = 1, N
              S1: A(I, I) = A(I, I) + 1.0
            enddo
            """,
            "diag_update",
        )
        lowered = lower_program(program, vectorize=True)
        assert lowered.vectorized_loops == 0
        rejects = [
            ev for ev in mem.events_for("vectorize", "reject")
            if ev.attrs.get("access")
        ]
        assert rejects, "blocked loop produced no access-naming reject"
        assert rejects[0].attrs["access"] == "A(I, I)"
        assert "2 dimensions" in rejects[0].reason


class TestTuneEvents:
    @pytest.fixture(scope="class")
    def tuned_session(self, tmp_path_factory):
        from repro.tune import TuneStore, tune

        store = TuneStore(tmp_path_factory.mktemp("tune"))
        sink = obs.MemorySink()
        with obs.session(sink):
            result = tune(
                simplified_cholesky(), {"N": 8}, store=store,
                backend="source", beam_width=2, depth=1, top_k=2,
            )
        return sink, result

    def test_scored_candidates_accepted_with_score(self, tuned_session):
        sink, result = tuned_session
        scored = [
            ev for ev in sink.events_for("tune", "accept")
            if "statically scored" in ev.reason
        ]
        assert len(scored) == result.scored
        assert all(float(ev.attrs["score"]) > 0 for ev in scored)

    def test_pruned_candidates_rejected_with_culprit(self, tuned_session):
        sink, result = tuned_session
        pruned = sink.events_for("tune", "reject")
        assert len(pruned) == result.pruned
        assert all("pruned_by" in ev.attrs for ev in pruned)

    def test_beam_rank_recorded(self, tuned_session):
        sink, _ = tuned_session
        ranked = [
            ev for ev in sink.events_for("tune")
            if "cost_rank" in ev.attrs
        ]
        assert ranked
        survivors = [ev for ev in ranked if ev.verdict == "accept"]
        below_cut = [ev for ev in ranked if ev.verdict == "info"]
        assert survivors and below_cut
        assert min(int(ev.attrs["cost_rank"]) for ev in survivors) == 1

    def test_measurements_and_tau_summary(self, tuned_session):
        sink, _ = tuned_session
        measures = sink.events_for("tune", "measure")
        assert measures
        assert all(float(ev.attrs["seconds"]) > 0 for ev in measures)
        assert any(ev.attrs.get("baseline") == "true" for ev in measures)
        taus = [
            ev for ev in sink.events_for("tune", "info")
            if "tau" in ev.attrs
        ]
        assert len(taus) == 1


class TestFuzzEvents:
    def test_per_case_provenance(self, mem):
        from repro.fuzz.runner import fuzz_run

        session = fuzz_run(5, seed=3, corpus_dir=None)
        events = mem.events_for("fuzz")
        assert [ev.attrs["index"] for ev in events] == [0, 1, 2, 3, 4]
        assert all("case_kind" in ev.attrs for ev in events)
        # verdict counts in the session match the event stream
        from collections import Counter

        assert Counter(ev.reason for ev in events) == Counter(
            session.verdict_counts
        )


class TestLatencyHistograms:
    def test_fm_query_and_cache_hit_latency(self, mem):
        engine.cache_clear()
        analyze_dependences(simplified_cholesky())
        sess = obs.current_session()
        cold_hits = sess.histograms["fm.cache_hit_ns"].count
        cold_queries = sess.histograms["fm.query_ns"].count
        assert cold_queries > 0
        assert sess.counters["dependence.memo_misses"] == 1
        # a warm re-run is answered by the engine's dependence memo: no
        # FM query is made at all, hit or miss
        analyze_dependences(simplified_cholesky())
        assert sess.counters["dependence.memo_hits"] == 1
        assert sess.counters["dependence.memo_misses"] == 1
        assert sess.histograms["fm.query_ns"].count == cold_queries
        assert sess.histograms["fm.cache_hit_ns"].count == cold_hits
        # the FM cache underneath still answers a repeated query itself:
        # only the cache-hit histogram grows
        system = System([ge(var("i"), 1), le(var("i"), var("N")), ge(var("N"), 3)])
        assert system.feasible() is system.feasible()
        assert sess.histograms["fm.query_ns"].count == cold_queries + 1
        assert sess.histograms["fm.cache_hit_ns"].count == cold_hits + 1

    def test_codegen_time_histogram(self, mem):
        from repro.codegen import generate_code
        from repro.completion import complete_transformation

        program = simplified_cholesky()
        layout = Layout(program)
        deps = analyze_dependences(program, layout=layout)
        completed = complete_transformation(program, deps=deps, layout=layout)
        generate_code(program, completed.matrix, deps)
        h = obs.current_session().histograms["codegen.generate_ns"]
        assert h.count == 1
        assert h.max > 0

    def test_no_histograms_without_session(self):
        assert obs.current_session() is None
        engine.cache_clear()
        analyze_dependences(simplified_cholesky())  # must not record or raise
        assert obs.snapshot_histograms() == {}


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


class TestIllegalAlwaysExplained:
    """Property: a transform ruled illegal always leaves evidence."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5000), pick=st.integers(0, 5))
    def test_illegal_random_transform_emits_reject(self, seed, pick):
        program = random_program(seed, max_depth=2, max_children=2)
        layout = Layout(program)
        loops = [c.var for c in layout.loop_coords()]
        deps = analyze_dependences(program, layout=layout)

        if pick < 2 or len(loops) < 2:
            t = reversal(layout, loops[pick % len(loops)])
        elif pick < 4:
            t = permutation(layout, loops[0], loops[-1])
        else:
            t = skew(layout, loops[0], loops[-1], -1 if pick == 4 else 2)

        sink = obs.MemorySink()
        with obs.session(sink):
            report = check_legality(layout, t.matrix, deps)
        rejects = sink.events_for("legality", "reject")

        # reject events appear exactly when the verdict is ILLEGAL...
        assert bool(rejects) == (not report.legal)
        # ...and each one carries actionable evidence: the offending
        # dependence + projection, or the structural failure detail
        for ev in rejects:
            assert ("dep" in ev.attrs and "projection" in ev.attrs) or (
                "detail" in ev.attrs
            )
