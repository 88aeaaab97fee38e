"""Static cost model: feature extraction, discrimination between loop
orders, and realize(): the candidate's generated, simplified program."""

import pytest

from repro.ir import parse_program, program_to_str
from repro.kernels import cholesky, gauss_seidel_1d, matmul
from repro.legality.check import check_legality
from repro.tune.cost import (
    CAPACITY_LINES, MODEL_PARAM, model_params_for, realize, score_candidate,
)
from repro.tune.space import (
    compose_candidate, elementary_candidates, enumerate_candidates,
    identity_candidate, lead_candidates, make_context,
)
from repro.util.errors import ReproError


class TestModelParams:
    def test_clamped_to_cap(self):
        assert model_params_for(("N",), {"N": 4000}) == {"N": MODEL_PARAM}

    def test_small_sizes_kept(self):
        assert model_params_for(("N",), {"N": 4}) == {"N": 4}

    def test_missing_params_default_to_cap(self):
        assert model_params_for(("N", "M"), {}) == {"N": MODEL_PARAM, "M": MODEL_PARAM}


class TestRealize:
    def test_identity_realizes_to_original(self):
        # simplification must fold codegen's residual guards/hulls away,
        # or every transformed schedule would be unfairly penalized
        # against the guard-free original (see generate_code's docstring)
        prog = cholesky()
        ctx = make_context(prog)
        realized = realize(identity_candidate(ctx))
        assert program_to_str(realized, header=False) == program_to_str(
            prog, header=False
        )

    def test_illegal_candidate_raises_before_execution(self):
        ctx = make_context(cholesky())
        illegal = [
            c for c in enumerate_candidates(cholesky())
            if not check_legality(ctx.layout, c.matrix, ctx.deps).legal
        ]
        assert illegal, "expected some illegal candidates in the space"
        with pytest.raises(ReproError):
            realize(illegal[0])


class TestScoring:
    def test_report_features_complete(self):
        ctx = make_context(matmul())
        rep = score_candidate(identity_candidate(ctx))
        feats = rep.features()
        assert set(feats) == {
            "score", "locality", "vectorized_loops", "fallback_loops",
            "doall_loops", "total_loops", "instances", "footprint_lines",
        }
        assert 0.0 <= rep.locality <= 1.0
        assert rep.instances > 0

    def test_discriminates_cholesky_orders(self):
        # the model working set exceeds the model cache by construction,
        # so loop orders must separate: the left-looking L-led order has
        # strictly better locality than the right-looking default
        ctx = make_context(cholesky())
        ident = score_candidate(identity_candidate(ctx))
        lead_l = [c for c in lead_candidates(ctx) if c.lead == "L"][0]
        assert score_candidate(lead_l).locality > ident.locality

    def test_capacity_affects_locality(self):
        ctx = make_context(cholesky())
        cand = identity_candidate(ctx)
        tight = score_candidate(cand, capacity_lines=2)
        loose = score_candidate(cand, capacity_lines=CAPACITY_LINES * 64)
        assert tight.locality < loose.locality

    def test_illegal_scoring_raises(self):
        ctx = make_context(cholesky())
        illegal = [
            c for c in enumerate_candidates(cholesky())
            if not check_legality(ctx.layout, c.matrix, ctx.deps).legal
        ]
        with pytest.raises(ReproError):
            score_candidate(illegal[0])


class TestNoInterpretationPerCandidate:
    """Scoring reads the generated program's address stream; the
    interpreter runs once per (context, model size), for values only."""

    @staticmethod
    def _ancestors(sp) -> list[str]:
        out = []
        while sp.parent is not None:
            sp = sp.parent
            out.append(sp.name)
        return out

    def test_cholesky_search_spans(self, tmp_path):
        from repro import obs
        from repro.tune import TuneStore, tune

        mem = obs.MemorySink()
        with obs.session(mem):
            found = tune(cholesky(), {"N": 16}, depth=1, store=TuneStore(tmp_path))
        scored = [r for r in found.executed if r["stage"] == "score"]
        contexts = {r["program"] for r in scored}
        executes = [s for s in mem.spans if s.name == "interp.execute"]
        at_score = [s for s in executes if "tune.score" in self._ancestors(s)]
        # the measurement's one reference run; the source-vec backend
        # times and cross-checks without the interpreter
        at_measure = [s for s in executes if "tune.measure" in self._ancestors(s)]
        assert found.backend == "source-vec"
        assert len(at_score) == len(contexts) < len(scored) == found.scored
        assert len(at_measure) == 1
        assert len(executes) == len(at_score) + len(at_measure)
        walks = [s for s in mem.spans if s.name == "interp.program_addresses"]
        assert len(walks) == found.scored

    def test_value_failure_is_the_contexts(self):
        from repro import obs

        src = (
            "param N\nreal A(N,N)\n"
            "do I = 1..N\n do J = 1..N\n  S1: A(I,J) = A(I,J) / 0\n enddo\nenddo"
        )
        ctx = make_context(parse_program(src))
        cands = [identity_candidate(ctx)] + [c for c in lead_candidates(ctx) if c.lead == "J"]
        assert len(cands) == 2
        mem = obs.MemorySink()
        with obs.session(mem):
            for cand in cands:
                with pytest.raises(ReproError, match="division by zero"):
                    score_candidate(cand)
        assert sum(1 for s in mem.spans if s.name == "interp.execute") == 1


def test_skew_then_interchange_of_gauss_seidel_exposes_no_doall_loop():
    """The depth-2 candidate ``skew(I,S,1); permute(S,I)`` (rows
    [[1,1],[1,0]]) leaves some ``[+,-1]`` instances to its inner loop,
    so its parallelism feature counts no DOALL loop."""
    ctx = make_context(gauss_seidel_1d())
    steps = {c.description: c for c in elementary_candidates(ctx)}
    cand = compose_candidate(steps["skew(I,S,1)"], steps["permute(S,I)"])
    assert cand.matrix.rows() == ((1, 1), (1, 0))
    report = score_candidate(cand, {"N": 64, "T": 16})
    assert (report.doall_loops, report.total_loops) == (0, 2)
