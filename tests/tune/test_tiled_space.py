"""Tiled search space, the candidate cap, and winner selection.

These pin the PR-7 search-space contract: tiled contexts and blocked
lead candidates enter enumeration legally; every stage respects the
``max_candidates`` cap (emitting the ``tune/truncated`` decision event
rather than silently searching a prefix); the cost model's footprint
term prefers blocked schedules once the working set outgrows the model
cache; and the driver's stratification + tie-break keep blocked
candidates measurable without ever reporting a winner slower than the
measured default.
"""

import pytest

from repro import obs
from repro.kernels import cholesky, trmm
from repro.transform import TILE_LADDER
from repro.tune.cost import footprint_lines, score_candidate
from repro.tune.driver import (
    BLOCKED_SLOTS, TIE_BAND, TunedRow, _is_blocked, _pick_winner, _stratified,
)
from repro.tune.space import (
    DEFAULT_MAX_CANDIDATES, blocked_lead_candidates, cap_candidates,
    enumerate_candidates, make_context, resolve_max_candidates,
    tiled_contexts,
)


def _row(description, seconds, score=None, candidate=None):
    return TunedRow(
        description=description, kind="permute", steps=("x",),
        score=score, seconds=seconds, ok=True, error="",
        baseline=False, candidate=candidate,
    )


class TestTiledContexts:
    def test_one_context_per_ladder_size_at_least(self):
        ctxs = tiled_contexts(trmm(), tile_sizes=TILE_LADDER)
        sizes = {c.tile[1] for c in ctxs if c.tile}
        assert sizes == set(TILE_LADDER)

    def test_contexts_are_marked_tiled(self):
        for ctx in tiled_contexts(trmm(), tile_sizes=(16,)):
            assert ctx.is_tiled
            assert ctx.origin  # records the strip-mine provenance

    def test_untiled_context_is_not_tiled(self):
        assert not make_context(trmm()).is_tiled

    def test_blocked_leads_are_legal(self):
        """Every blocked lead candidate must already have passed the
        Theorem-2 check — the driver executes them unconditionally."""
        from repro.legality import check_legality

        for ctx in tiled_contexts(trmm(), tile_sizes=(16, 32)):
            for cand in blocked_lead_candidates(ctx):
                report = check_legality(ctx.layout, cand.matrix, ctx.deps)
                assert report.legal, cand.describe()

    def test_enumeration_includes_blocked_kind(self):
        cands = enumerate_candidates(trmm(), tile_sizes=(16,))
        assert any(_is_blocked(c) for c in cands)


class TestCandidateCap:
    def test_resolve_precedence(self, monkeypatch):
        """The argument, else the default; the environment variable the
        cap once had is not read."""
        monkeypatch.setenv("REPRO_" "TUNE_MAX", "13")
        assert resolve_max_candidates(None) == DEFAULT_MAX_CANDIDATES
        assert resolve_max_candidates(7) == 7
        assert resolve_max_candidates(0) == 1

    def test_enumerate_respects_cap(self):
        capped = enumerate_candidates(
            cholesky(), tile_sizes=(4,), max_candidates=10)
        assert len(capped) == 10

    def test_truncation_emits_decision_event(self):
        full = enumerate_candidates(cholesky(), tile_sizes=(4,))
        assert len(full) > 5
        mem = obs.MemorySink()
        with obs.session(mem) as sess:
            got = cap_candidates(list(full), 5, "enumerate")
            assert sess.counters.get("tune.candidates.truncated") == len(full) - 5
        assert len(got) == 5
        (ev,) = mem.events_for("tune", "truncated")
        assert ev.attrs["stage"] == "enumerate"
        assert ev.attrs["dropped"] == len(full) - 5

    def test_no_event_under_cap(self):
        mem = obs.MemorySink()
        cands = enumerate_candidates(cholesky())
        with obs.session(mem):
            cap_candidates(list(cands), len(cands) + 1, "enumerate")
        assert not mem.events_for("tune", "truncated")


class TestFootprint:
    def test_blocked_footprint_smaller_than_untiled(self):
        """The whole point of the ladder: at a fixed model size the
        per-tile working set of a blocked nest is smaller than the full
        working set of the untiled nest."""
        p = trmm()
        tiled = min(
            tiled_contexts(p, tile_sizes=(16,)),
            key=lambda c: c.tile[1],
        )
        full = footprint_lines(p, {"N": 96})
        blocked = footprint_lines(tiled.program, {"N": 96})
        assert full is not None and blocked is not None
        assert blocked < full

    def test_score_carries_footprint_feature(self):
        ctx = make_context(trmm())
        cand = enumerate_candidates(trmm())[0]
        report = score_candidate(cand, {"N": 64})
        assert report.footprint_lines is not None


class TestStratification:
    def _ranked(self, program, tile_sizes=(16,)):
        from repro.legality import check_legality

        cands = [
            c for c in enumerate_candidates(program, tile_sizes=tile_sizes)
            if check_legality(c.context.layout, c.matrix, c.context.deps).legal
        ]
        return [(c, score_candidate(c, {"N": 64})) for c in cands]

    def test_reserves_blocked_slots(self):
        ranked = self._ranked(trmm())
        # force every blocked candidate out of the head
        ranked.sort(key=lambda item: _is_blocked(item[0]))
        head = _stratified(ranked, 2, BLOCKED_SLOTS)
        assert len(head) <= 2 + BLOCKED_SLOTS
        assert any(_is_blocked(c) for c, _ in head)

    def test_no_extra_slots_when_blocked_already_in_head(self):
        ranked = self._ranked(trmm())
        ranked.sort(key=lambda item: not _is_blocked(item[0]))
        head = _stratified(ranked, 2, BLOCKED_SLOTS)
        assert head == ranked[:2]

    def test_zero_slots_disables_reservation(self):
        ranked = self._ranked(trmm())
        ranked.sort(key=lambda item: _is_blocked(item[0]))
        assert _stratified(ranked, 2, 0) == ranked[:2]


class TestPickWinner:
    def test_rows_slower_than_baseline_ineligible(self):
        rows = [
            _row("default", 1.0),
            _row("fast-but-wrongly-sampled", 0.5),
        ]
        assert _pick_winner(rows, 0.6).description == "fast-but-wrongly-sampled"
        assert _pick_winner(rows, 0.4).description == "fast-but-wrongly-sampled"

    def test_tie_band_resolved_by_static_score(self):
        """Two rows inside the jitter band: the one the cost model
        prefers wins, even though it sampled marginally slower."""
        rows = [
            _row("lucky-sample", 1.00, score=0.1),
            _row("model-preferred", 1.00 * TIE_BAND * 0.999, score=0.9),
        ]
        assert _pick_winner(rows, 10.0).description == "model-preferred"

    def test_outside_band_fastest_wins_regardless_of_score(self):
        rows = [
            _row("fast", 1.0, score=0.0),
            _row("slow-high-score", 1.5, score=1.0),
        ]
        assert _pick_winner(rows, 10.0).description == "fast"

    def test_empty_measurable_returns_none(self):
        assert _pick_winner([], 1.0) is None

    def test_all_slower_than_baseline_falls_back(self):
        rows = [_row("a", 2.0), _row("b", 3.0)]
        assert _pick_winner(rows, 1.0).description == "a"
