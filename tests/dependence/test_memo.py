"""The engine-owned dependence memo: one §3 analysis per distinct
program, governed by the query engine's existing knobs."""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest

from repro import kernels, obs
from repro.dependence import DepVector, analyze_dependences
from repro.dependence.entry import DepEntry
from repro.instance import Layout
from repro.ir import Program
from repro.kernels import cholesky, simplified_cholesky
from repro.polyhedra import System, engine, ge, var


def _zoo():
    for name in kernels.__all__:
        try:
            program = getattr(kernels, name)()
        except TypeError:  # a factory that needs arguments, or a constant
            continue
        if isinstance(program, Program):
            yield pytest.param(program, id=name)


@pytest.fixture()
def counters():
    """A cold engine and a live session; yields its counter dict."""
    engine.cache_clear()
    with obs.session() as sess:
        yield sess.counters


def _lookups(counters) -> tuple[int, int]:
    return counters.get("dependence.memo_hits", 0), counters.get("dependence.memo_misses", 0)


class TestOracle:
    @pytest.mark.parametrize("program", _zoo())
    def test_memoized_result_equals_the_uncached_analysis(self, program):
        with engine.cache_disabled():
            oracle = analyze_dependences(program)
        engine.cache_clear()
        first = analyze_dependences(program)
        again = analyze_dependences(program)
        # same vectors, same order — on the computing call and on the hit
        assert first.deps == oracle.deps
        assert again.deps == oracle.deps
        assert again.layout.coords == oracle.layout.coords

    def test_the_zoo_is_not_trivial(self):
        programs = [p.values[0] for p in _zoo()]
        assert len(programs) >= 19
        assert sum(len(analyze_dependences(p)) for p in programs) > 100


class TestFreshMatrix:
    def test_mutating_a_result_does_not_change_the_next(self):
        program = simplified_cholesky()
        engine.cache_clear()
        first = analyze_dependences(program)
        want = list(first.deps)
        bogus = DepVector("S1", "S1", tuple(DepEntry.const(7) for _ in first.layout.coords))
        first.add(bogus)
        first.deps.reverse()
        second = analyze_dependences(program)  # a hit
        assert second.deps == want
        second.extend([bogus])
        assert analyze_dependences(program).deps == want

    def test_hit_shares_vectors_but_not_the_matrix(self):
        program = simplified_cholesky()
        engine.cache_clear()
        a = analyze_dependences(program)
        b = analyze_dependences(program)
        assert a is not b and a.deps is not b.deps
        assert all(x is y for x, y in zip(a.deps, b.deps))

    def test_hit_uses_the_callers_layout(self):
        program = simplified_cholesky()
        analyze_dependences(program)
        layout = Layout(program)
        assert analyze_dependences(program, layout=layout).layout is layout

    def test_unoptimized_layout_is_its_own_entry(self):
        program = simplified_cholesky()
        raw = Layout(program, optimize_single_edges=False)
        assert raw.dimension > Layout(program).dimension
        engine.cache_clear()
        analyze_dependences(program)
        deps = analyze_dependences(program, layout=raw)
        assert all(len(d.entries) == raw.dimension for d in deps)


class TestEngineKnobs:
    def test_repeat_is_a_hit(self, counters):
        program = simplified_cholesky()
        analyze_dependences(program)
        assert _lookups(counters) == (0, 1)
        work = counters["dependence.pairs_tested"]
        analyze_dependences(program)
        assert _lookups(counters) == (1, 1)
        assert counters["dependence.pairs_tested"] == work

    def test_cache_clear_forces_a_real_analysis(self, counters):
        program = simplified_cholesky()
        analyze_dependences(program)
        work = counters["dependence.pairs_tested"]
        engine.cache_clear()
        analyze_dependences(program)
        assert _lookups(counters) == (0, 2)
        assert counters["dependence.pairs_tested"] == 2 * work

    def test_cache_disabled_forces_a_real_analysis(self, counters):
        program = simplified_cholesky()
        analyze_dependences(program)
        work = counters["dependence.pairs_tested"]
        with engine.cache_disabled():
            analyze_dependences(program)
        # no lookup is made at all, as for FM queries
        assert _lookups(counters) == (0, 1)
        assert counters["dependence.pairs_tested"] == 2 * work
        analyze_dependences(program)  # the entry survived the oracle run
        assert _lookups(counters) == (1, 1)

    def test_configure_enabled_false_forces_a_real_analysis(self, counters):
        program = simplified_cholesky()
        analyze_dependences(program)
        work = counters["dependence.pairs_tested"]
        engine.configure(enabled=False)
        try:
            analyze_dependences(program)
        finally:
            engine.configure(enabled=True)
        assert _lookups(counters) == (0, 1)
        assert counters["dependence.pairs_tested"] == 2 * work

    def test_resizing_the_fm_cache_clears_the_memo(self, counters):
        program = simplified_cholesky()
        analyze_dependences(program)
        engine.configure(maxsize=engine.cache_stats().maxsize)
        analyze_dependences(program)
        assert _lookups(counters) == (0, 2)

    def test_memo_lookups_leave_the_fm_statistics_alone(self, counters):
        program = simplified_cholesky()
        analyze_dependences(program)
        before = engine.cache_stats()
        fm = {k: v for k, v in counters.items() if k.startswith("fm.")}
        analyze_dependences(program)
        after = engine.cache_stats()
        assert (after.hits, after.misses, after.size) == (before.hits, before.misses, before.size)
        assert {k: v for k, v in counters.items() if k.startswith("fm.")} == fm

    def test_engine_stats_gained_no_field(self):
        assert [f.name for f in dataclasses.fields(engine.EngineStats)] == [
            "hits", "misses", "evictions", "size", "maxsize", "enabled"]

    def test_memo_is_bounded_and_takes_no_fm_slot(self):
        engine.cache_clear()
        eng = engine.default_engine()
        evictions = engine.cache_stats().evictions
        for i in range(engine._ANALYSIS_MEMO_SIZE + 10):
            eng.put_analysis(("k", i), ())
        assert eng.get_analysis(("k", 0)) is engine.MISS
        assert eng.get_analysis(("k", engine._ANALYSIS_MEMO_SIZE + 9)) == ()
        stats = engine.cache_stats()
        assert (stats.size, stats.evictions) == (0, evictions)
        engine.cache_clear()
        assert eng.get_analysis(("k", engine._ANALYSIS_MEMO_SIZE + 9)) is engine.MISS


class TestKey:
    def test_param_assumptions_separate_entries(self, counters):
        program = simplified_cholesky()
        plain = analyze_dependences(program)
        assumed = analyze_dependences(program, param_assumptions=System([ge(var("N"), 4)]))
        assert _lookups(counters) == (0, 2)
        # structurally equal assumptions share an entry; an empty system is no assumption
        analyze_dependences(program, param_assumptions=System([ge(var("N"), 4)]))
        analyze_dependences(program, param_assumptions=System())
        assert _lookups(counters) == (2, 2)
        with engine.cache_disabled():
            assert assumed.deps == analyze_dependences(
                program, param_assumptions=System([ge(var("N"), 4)])).deps
            assert plain.deps == analyze_dependences(program).deps

    def test_name_does_not_separate_entries(self, counters):
        program = simplified_cholesky()
        first = analyze_dependences(program)
        renamed = dataclasses.replace(program, name="another_name")
        assert renamed != program
        second = analyze_dependences(renamed)
        assert _lookups(counters) == (1, 1)
        assert second.deps == first.deps
        assert second.layout.program is renamed

    def test_a_rebuilt_equal_program_hits(self, counters):
        analyze_dependences(simplified_cholesky())
        analyze_dependences(simplified_cholesky())
        assert _lookups(counters) == (1, 1)

    def test_a_different_program_misses(self, counters):
        analyze_dependences(simplified_cholesky())
        analyze_dependences(cholesky())
        assert _lookups(counters) == (0, 2)


class TestThreads:
    def test_eight_threads_one_program(self):
        program = cholesky()
        with engine.cache_disabled():
            oracle = analyze_dependences(program)
        engine.cache_clear()
        results: list = [None] * 8
        errors: list = []
        start = threading.Barrier(8)

        def work(i):
            try:
                start.wait(timeout=30)
                results[i] = analyze_dependences(program)
            except BaseException as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert all(r.deps == oracle.deps for r in results)
        assert len({id(r) for r in results}) == 8


class TestSpan:
    def test_span_says_hit_or_miss(self):
        engine.cache_clear()
        sink = obs.MemorySink()
        with obs.session(sink):
            program = simplified_cholesky()
            analyze_dependences(program)
            analyze_dependences(program)
            with engine.cache_disabled():
                analyze_dependences(program)
        spans = sink.find("dependence.analyze")
        assert [s.attrs.get("memo") for s in spans] == ["miss", "hit", None]
        assert all(s.attrs["program"] == program.name for s in spans)
