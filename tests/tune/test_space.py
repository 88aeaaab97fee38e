"""Candidate enumeration: loop orders via completion, elementary
transformations, structural variants, and canonical-form dedup."""

import pytest

from repro.interp.equivalence import outputs_close
from repro.interp.executor import execute
from repro.kernels import cholesky, gemver_like, matmul, simplified_cholesky, sweep_pair
from repro.legality.check import check_legality
from repro.linalg import IntMatrix
from repro.tune.space import (
    Candidate, base_contexts, compose_candidate, dedupe, elementary_candidates,
    enumerate_candidates, identity_candidate, lead_candidates, make_context,
    skew_factors_from_deps,
)


class TestEnumeration:
    def test_identity_first(self):
        cands = enumerate_candidates(simplified_cholesky())
        assert cands[0].kind == "identity"
        assert cands[0].description == "default order"
        assert cands[0].matrix == IntMatrix.identity(cands[0].matrix.shape[0])

    def test_no_duplicates(self):
        cands = enumerate_candidates(cholesky())
        keys = [c.canonical_key() for c in cands]
        assert len(keys) == len(set(keys))

    def test_covers_all_kinds(self):
        kinds = {c.kind for c in enumerate_candidates(cholesky())}
        assert {"identity", "order", "permute", "reverse", "skew"} <= kinds

    def test_lead_candidates_match_search(self):
        # the legal lead loops of cholesky are K and L (pinned by the
        # original search_loop_orders tests this space generalizes)
        ctx = make_context(cholesky())
        leads = {c.lead for c in lead_candidates(ctx)}
        assert leads == {"K", "L"}

    def test_include_structural_false_single_context(self):
        cands = enumerate_candidates(sweep_pair(), include_structural=False)
        assert all(c.context.origin == () for c in cands)


class TestStructuralVariants:
    def test_jam_variant_for_sweep_pair(self):
        # jamming is fuse at offset 0: the two one-header loops fuse
        origins = [c.origin for c in base_contexts(sweep_pair())]
        assert ("fuse(0)",) in origins

    def test_distribution_variants_for_gemver(self):
        origins = [c.origin for c in base_contexts(gemver_like())]
        assert any("distribute" in o[0] for o in origins if o)

    def test_structural_variants_preserve_semantics(self):
        # every admitted context must compute the same outputs
        program = sweep_pair()
        params = {p: 8 for p in program.params}
        ref = execute(program, params)[0].snapshot()
        for ctx in base_contexts(program)[1:]:
            out = execute(ctx.program, params)[0].snapshot()
            assert outputs_close(ref, out, 0.0), ctx.origin

    def test_matmul_has_no_variants(self):
        assert len(base_contexts(matmul())) == 1


class TestSkewFactors:
    def test_always_includes_unit(self):
        ctx = make_context(matmul())
        fs = skew_factors_from_deps(ctx.deps)
        assert 1 in fs and -1 in fs

    def test_symmetric(self):
        ctx = make_context(cholesky())
        fs = skew_factors_from_deps(ctx.deps)
        assert all(-f in fs for f in fs)


class TestComposition:
    def test_compose_is_matrix_product(self):
        ctx = make_context(cholesky())
        elems = elementary_candidates(ctx)
        a, b = elems[0], elems[1]
        c = compose_candidate(a, b)
        assert c.matrix == b.matrix @ a.matrix
        assert c.steps == a.steps + b.steps

    def test_compose_requires_same_context(self):
        c1 = identity_candidate(make_context(cholesky()))
        c2 = identity_candidate(make_context(matmul()))
        with pytest.raises(AssertionError):
            compose_candidate(c1, c2)

    def test_dedupe_folds_involutions(self):
        # reverse twice == identity; dedupe keeps one representative
        ctx = make_context(simplified_cholesky())
        rev = [c for c in elementary_candidates(ctx) if c.kind == "reverse"][0]
        twice = compose_candidate(rev, rev)
        kept = dedupe([identity_candidate(ctx), rev, twice])
        assert len(kept) == 2

    def test_completed_leads_are_legal(self):
        # the §6 completion procedure must only produce legal matrices
        ctx = make_context(cholesky())
        for cand in lead_candidates(ctx):
            assert check_legality(ctx.layout, cand.matrix, ctx.deps).legal


class TestCandidateIdentity:
    def test_description_includes_origin(self):
        ctx = base_contexts(sweep_pair())[1]
        cand = identity_candidate(ctx)
        assert cand.description == "fuse(0)"

    def test_canonical_key_distinguishes_contexts(self):
        ctxs = base_contexts(sweep_pair())
        k1 = identity_candidate(ctxs[0]).canonical_key()
        k2 = identity_candidate(ctxs[1]).canonical_key()
        assert k1 != k2
