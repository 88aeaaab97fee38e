"""The memoizing polyhedral query engine: LRU mechanics, canonical
keys, observability counters, and cached/fused-vs-oracle agreement on a
randomized corpus."""

import random

import pytest

from repro import obs
from repro.polyhedra import Feasibility, LinExpr, System, engine, eq, ge, ge0, le, var
from repro.polyhedra.engine import MISS, EngineStats, QueryEngine
from repro.polyhedra.system import FM_ROW_BUDGET


@pytest.fixture(autouse=True)
def _clean_engine():
    """Each test starts from an empty, enabled default engine."""
    engine.configure(enabled=True)
    engine.cache_clear()
    yield
    engine.configure(enabled=True)
    engine.cache_clear()


# -- LRU mechanics ----------------------------------------------------------


class TestQueryEngine:
    def test_get_miss_then_hit(self):
        eng = QueryEngine(maxsize=4)
        assert eng.get("k") is MISS
        eng.put("k", 42)
        assert eng.get("k") == 42
        s = eng.stats()
        assert (s.hits, s.misses) == (1, 1)

    def test_eviction_is_lru(self):
        eng = QueryEngine(maxsize=2)
        eng.put("a", 1)
        eng.put("b", 2)
        assert eng.get("a") == 1  # refresh a; b is now LRU
        eng.put("c", 3)
        assert eng.get("b") is MISS
        assert eng.get("a") == 1
        assert eng.get("c") == 3
        assert eng.stats().evictions == 1

    def test_clear_keeps_stats(self):
        eng = QueryEngine(maxsize=4)
        eng.put("a", 1)
        eng.get("a")
        eng.clear()
        assert eng.get("a") is MISS
        s = eng.stats()
        assert s.size == 0 and s.hits == 1

    def test_stats_hit_rate(self):
        assert EngineStats(3, 1, 0, 0, 8, True).hit_rate == 0.75
        assert EngineStats(0, 0, 0, 0, 8, True).hit_rate == 0.0


class TestDefaultEngineConfig:
    def test_configure_disable_enable(self):
        engine.configure(enabled=False)
        assert engine.active() is None
        engine.configure(enabled=True)
        assert engine.active() is engine.default_engine()

    def test_cache_disabled_context_restores(self):
        with engine.cache_disabled():
            assert engine.active() is None
        assert engine.active() is not None

    def test_resize_clears(self):
        s = System([ge(var("x"), 0), le(var("x"), 5)])
        s.feasible()
        assert len(engine.default_engine()) > 0
        engine.configure(maxsize=1024)
        assert len(engine.default_engine()) == 0


# -- caching behavior on Systems -------------------------------------------


class TestSystemMemoization:
    def test_feasible_is_cached(self):
        s = System([ge(var("x"), 0), le(var("x"), 5)])
        before = engine.cache_stats()
        assert s.feasible() is Feasibility.FEASIBLE
        mid = engine.cache_stats()
        assert s.feasible() is Feasibility.FEASIBLE
        after = engine.cache_stats()
        assert mid.misses > before.misses
        assert after.hits > mid.hits

    def test_structurally_equal_systems_share_entries(self):
        a = System([ge(var("x"), 0), le(var("x"), var("N"))])
        b = System([le(var("x"), var("N")), ge(var("x"), 0)])  # reordered
        assert a.canonical_key() == b.canonical_key()
        assert a == b and hash(a) == hash(b)
        a.feasible()
        h0 = engine.cache_stats().hits
        b.feasible()
        assert engine.cache_stats().hits > h0

    def test_eliminate_shadows_exact_shares_object(self):
        s = System([ge(var("x"), 0), le(var("x"), var("N"))])
        real, dark, exact = s.eliminate_shadows("x")
        assert exact and real is dark

    def test_eliminate_shadows_inexact_diverges(self):
        # 2x >= y and 3x <= z: the x-pairing has non-unit coefficients on
        # both sides, so the dark shadow is strictly tighter than real.
        s = System([ge0(LinExpr({"x": 2, "y": -1})), ge0(LinExpr({"x": -3, "z": 1}))])
        real, dark, exact = s.eliminate_shadows("x")
        assert not exact and real is not dark
        assert real.satisfied_by({"y": 0, "z": 0})       # -3y + 2z >= 0
        assert not dark.satisfied_by({"y": 0, "z": 0})   # -3y + 2z - 2 >= 0

    def test_cache_counters_reach_obs(self):
        s = System([ge(var("x"), 1), le(var("x"), 9)])
        with obs.session() as sess:
            s.feasible()
            s.feasible()
        assert sess.counters.get("fm.cache_misses", 0) > 0
        assert sess.counters.get("fm.cache_hits", 0) > 0

    def test_variables_cached_identical_object(self):
        """Mutation-free reuse returns the *identical* frozenset."""
        s = System([ge(var("i"), 0), le(var("j"), var("N"))])
        v1 = s.variables()
        v2 = s.variables()
        assert v1 is v2
        assert v1 == frozenset({"i", "j", "N"})

    def test_project_result_usable_after_hits(self):
        s = System([ge(var("i"), 0), le(var("i"), var("j")), le(var("j"), 7)])
        p1, e1 = s.project_onto(("j",))
        p2, e2 = s.project_onto(("j",))
        assert e1 == e2
        assert p1.canonical_key() == p2.canonical_key()
        assert p1.satisfied_by({"j": 3})


# -- randomized corpus: cached/fused == uncached oracle ---------------------


def _random_system(rng: random.Random) -> System:
    names = ["x", "y", "z"]
    cs = []
    for v in names:
        cs.append(ge0(LinExpr({v: 1}, rng.randint(0, 6))))   # v >= -c
        cs.append(ge0(LinExpr({v: -1}, rng.randint(0, 6))))  # v <= c
    for _ in range(rng.randint(0, 4)):
        coeffs = {v: rng.randint(-3, 3) for v in names}
        expr = LinExpr(coeffs, rng.randint(-7, 7))
        cs.append(eq(expr, 0) if rng.random() < 0.25 else ge0(expr))
    return System(cs)


def test_corpus_cached_matches_uncached_oracle():
    rng = random.Random(20260806)
    for i in range(60):
        s = _random_system(rng)
        keep = rng.choice([(), ("x",), ("x", "y")])
        with engine.cache_disabled():
            oracle_feas = s.feasible()
            oracle_proj, oracle_exact = s.project_onto(keep)
        engine.cache_clear()
        # cold (fills cache) then warm (served from cache)
        for attempt in ("cold", "warm"):
            feas = s.feasible()
            proj, exact = s.project_onto(keep)
            assert feas is oracle_feas, f"case {i} ({attempt}): {s}"
            assert exact == oracle_exact, f"case {i} ({attempt}): {s}"
            assert proj.canonical_key() == oracle_proj.canonical_key(), (
                f"case {i} ({attempt}): {s}"
            )


def test_corpus_feasible_sound_vs_brute_force():
    """The fused real+dark sweep stays sound on bounded random systems."""
    rng = random.Random(7)
    for _ in range(40):
        s = _random_system(rng)
        pts = [
            {"x": x, "y": y, "z": z}
            for x in range(-6, 7)
            for y in range(-6, 7)
            for z in range(-6, 7)
            if s.satisfied_by({"x": x, "y": y, "z": z})
        ]
        verdict = s.feasible()
        if pts:
            assert verdict is not Feasibility.INFEASIBLE
        else:
            assert verdict is not Feasibility.FEASIBLE


# -- the FM work budget of a feasibility query ------------------------------


def _dense_system(seed: int = 5, n_vars: int = 8, n_rows: int = 60) -> System:
    """Every constraint mentions every variable with a non-unit-heavy
    coefficient: the second elimination step squares the row count."""
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(n_vars)]
    return System([
        ge0(LinExpr({v: rng.choice((-3, -2, -1, 1, 2, 3)) for v in names}, rng.randint(-9, 9)))
        for _ in range(n_rows)
    ])


class TestWorkBudget:
    def test_a_dense_system_exhausts_the_budget_quickly(self):
        import time

        s = _dense_system()
        t0 = time.perf_counter()
        with obs.collect_events() as events, obs.session() as sess:
            verdict = s.feasible()
        assert time.perf_counter() - t0 < 1.0
        assert verdict is Feasibility.UNKNOWN
        assert sess.counters["fm.budget_exhausted"] == 1
        (ev,) = obs.events_for(events, "fm")
        assert ev.verdict == "info" and ev.attrs["rows"] > FM_ROW_BUDGET

    def test_an_exhausted_query_stays_out_of_the_memo(self):
        s = _dense_system()
        with obs.session() as sess:
            s.feasible()
            s.feasible()
        assert sess.counters["fm.budget_exhausted"] == 2

    def test_projection_has_no_budget(self):
        # the same elimination under project_onto is not cut short
        s = _dense_system(n_vars=3, n_rows=24)
        with obs.session() as sess:
            proj, _ = s.project_onto(())
        assert sess.counters.get("fm.budget_exhausted", 0) == 0
        assert proj.is_trivially_false() or not proj.variables()
