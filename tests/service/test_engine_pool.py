"""Engine pool: canonical sharding, LRU eviction, caching, coalescing."""

from __future__ import annotations

import threading

import pytest

from repro.service.engine_pool import EnginePool

SRC = "param N\nreal A(0:N)\ndo I = 1, N\n  S1: A(I) = f(I)\nenddo"
#: same program, different surface syntax (whitespace)
SRC_VARIANT = "param N\nreal A(0:N)\ndo I = 1,N\n  S1:A(I) = f(I)\nenddo"


def prog(n: int) -> str:
    return f"param N\nreal A{n}(0:N)\ndo I = 1, N\n  S1: A{n}(I) = f(I)\nenddo"


def test_equal_programs_share_a_shard_across_formatting():
    pool = EnginePool(max_shards=8)
    a = pool.shard_for(SRC)
    b = pool.shard_for(SRC_VARIANT)
    assert a is b
    assert pool.stats["shard_hits"] == 1 and pool.stats["shard_misses"] == 1


def test_distinct_programs_get_distinct_shards():
    pool = EnginePool(max_shards=8)
    assert pool.shard_for(prog(1)) is not pool.shard_for(prog(2))
    assert pool.shard_count() == 2


def test_lru_eviction_bounds_the_shard_map():
    pool = EnginePool(max_shards=2)
    s1 = pool.shard_for(prog(1))
    pool.shard_for(prog(2))
    pool.shard_for(prog(3))  # evicts prog(1)
    assert pool.shard_count() == 2
    assert pool.stats["shard_evictions"] == 1
    s1_again = pool.shard_for(prog(1))  # re-parse, new shard object
    assert s1_again is not s1


def test_lru_order_is_recency_not_insertion():
    pool = EnginePool(max_shards=2)
    s1 = pool.shard_for(prog(1))
    pool.shard_for(prog(2))
    assert pool.shard_for(prog(1)) is s1  # touch 1 -> 2 is now LRU
    pool.shard_for(prog(3))  # evicts prog(2)
    assert pool.shard_for(prog(1)) is s1  # still warm


def test_compute_caches_results_per_signature():
    pool = EnginePool()
    shard = pool.shard_for(SRC)
    calls = []

    def fn():
        calls.append(1)
        return {"v": len(calls)}

    p1, cached1, _ = pool.compute(shard, ("op", ()), fn)
    p2, cached2, _ = pool.compute(shard, ("op", ()), fn)
    p3, cached3, _ = pool.compute(shard, ("op", ("x",)), fn)
    assert (p1, cached1) == ({"v": 1}, False)
    assert (p2, cached2) == ({"v": 1}, True)  # no second call
    assert (p3, cached3) == ({"v": 2}, False)  # different signature
    assert pool.stats["cache_hits"] == 1 and pool.stats["cache_misses"] == 2


def test_shard_result_cache_is_bounded_lru():
    pool = EnginePool(max_results_per_shard=2)
    shard = pool.shard_for(SRC)
    for i in range(3):
        pool.compute(shard, ("op", (i,)), lambda i=i: {"v": i})
    assert shard.cache_len() == 2
    assert shard.cached(("op", (0,))) is None  # oldest evicted
    assert shard.cached(("op", (2,))) == {"v": 2}


def test_identical_inflight_requests_coalesce():
    pool = EnginePool()
    shard = pool.shard_for(SRC)
    started = threading.Event()
    release = threading.Event()
    calls = []

    def slow():
        calls.append(1)
        started.set()
        release.wait(5)
        return {"v": "shared"}

    results = []

    def worker():
        results.append(pool.compute(shard, ("op", ()), slow))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    threads[0].start()
    assert started.wait(5)
    for t in threads[1:]:
        t.start()
    # followers are registered before we release the leader
    deadline = threading.Event()
    for _ in range(100):
        if pool.stats["coalesced"] == 3:
            break
        deadline.wait(0.02)
    release.set()
    for t in threads:
        t.join(5)
    assert len(calls) == 1, "leader computed exactly once"
    payloads = sorted((p["v"], coalesced) for p, _, coalesced in results)
    assert [p for p, _ in payloads] == ["shared"] * 4
    assert sum(1 for _, c in payloads if c) == 3
    assert pool.stats["coalesced"] == 3


def test_leader_failure_propagates_to_followers():
    pool = EnginePool()
    shard = pool.shard_for(SRC)
    started = threading.Event()
    release = threading.Event()

    def boom():
        started.set()
        release.wait(5)
        raise ValueError("leader failed")

    errors = []

    def worker():
        try:
            pool.compute(shard, ("op", ()), boom)
        except ValueError as exc:
            errors.append(str(exc))

    threads = [threading.Thread(target=worker) for _ in range(3)]
    threads[0].start()
    assert started.wait(5)
    for t in threads[1:]:
        t.start()
    for _ in range(100):
        if pool.stats["coalesced"] == 2:
            break
        threading.Event().wait(0.02)
    release.set()
    for t in threads:
        t.join(5)
    assert errors == ["leader failed"] * 3
    # a failed flight is not cached; the next request recomputes
    with pytest.raises(ValueError):
        release.clear()
        started.clear()
        release.set()
        pool.compute(shard, ("op", ()), lambda: (_ for _ in ()).throw(ValueError("x")))


def test_snapshot_shape():
    pool = EnginePool(max_shards=4)
    shard = pool.shard_for(SRC)
    pool.compute(shard, ("op", ()), lambda: {"v": 1})
    snap = pool.snapshot()
    assert snap["shard_count"] == 1 and snap["max_shards"] == 4
    assert snap["shards"][0]["results"] == 1
    for key in ("shard_hits", "cache_misses", "coalesced"):
        assert key in snap


def test_shard_for_parses_each_request_once(monkeypatch):
    """One parse gives the key's canonical text and, on a miss, the
    shard's program: no second canonicalisation, no third parse."""
    from repro.ir import parser

    calls = []
    real = parser._Parser.parse_program

    def counting(self, name):
        calls.append(name)
        return real(self, name)

    monkeypatch.setattr(parser._Parser, "parse_program", counting)
    pool = EnginePool()
    pool.shard_for(SRC)
    assert len(calls) == 1  # miss
    pool.shard_for(SRC_VARIANT)
    assert len(calls) == 2  # hit
    assert pool.stats["shard_misses"] == 1 and pool.stats["shard_hits"] == 1
    # a text seen before is found raw: no parse at all
    for text in (SRC, SRC_VARIANT, SRC):
        pool.shard_for(text)
    assert len(calls) == 2
    assert pool.stats["shard_hits"] == 4


def test_an_evicted_shard_is_never_found_through_an_alias(monkeypatch):
    from repro.ir import parser

    calls = []
    real = parser._Parser.parse_program
    monkeypatch.setattr(
        parser._Parser, "parse_program",
        lambda self, name: calls.append(name) or real(self, name),
    )
    pool = EnginePool(max_shards=1)
    first = pool.shard_for(SRC)
    pool.shard_for(SRC_VARIANT)  # a second alias of the same shard
    pool.shard_for(prog(1))  # evicts SRC's shard and both its aliases
    assert len(calls) == 3
    for text in (SRC, SRC_VARIANT):
        again = pool.shard_for(text)
        assert again is not first
        assert again is pool.shard_for(SRC)
    assert len(calls) == 5  # each text parsed once more, once the shard was gone


def test_alias_table_is_bounded_in_characters(monkeypatch):
    from repro.service import engine_pool

    monkeypatch.setattr(engine_pool, "MAX_ALIAS_CHARS", 2 * len(prog(0)))
    pool = EnginePool()
    shards = [pool.shard_for(prog(n)) for n in range(4)]
    assert list(pool._aliases) == [prog(2), prog(3)]
    assert [s.texts for s in shards] == [set(), set(), {prog(2)}, {prog(3)}]
    assert pool.shard_for(prog(0)) is shards[0]  # the shard outlives its alias
    longer = prog(0).replace("do ", "do " + " " * 3 * len(prog(0)))
    assert pool.shard_for(longer) is shards[0]
    assert longer not in pool._aliases  # over the whole budget: never aliased


def test_shard_bound_is_the_argument_not_the_environment(monkeypatch):
    from repro.service.engine_pool import DEFAULT_MAX_SHARDS

    monkeypatch.setenv("REPRO_" "SERVICE_SHARDS", "3")
    assert EnginePool().max_shards == DEFAULT_MAX_SHARDS
    assert EnginePool(max_shards=3).max_shards == 3


def test_unparsable_program_is_refused_without_a_shard():
    from repro.util.errors import ParseError

    pool = EnginePool()
    with pytest.raises(ParseError):
        pool.shard_for("do I = 1, N\n  S1: A(I) = \nenddo")
    assert pool.shard_count() == 0
    assert pool.stats["shard_misses"] == 0


def test_front_table_stays_consistent_under_thread_churn():
    """More threads than cores, a short switch interval and a one-shard
    map: every lookup still names its own program, and the front table's
    bookkeeping (texts per shard, character count) loses no update."""
    import sys

    from repro.ir import canonical_text, program_key

    texts = [t for n in range(3) for t in (prog(n), prog(n).replace("= 1, N", "= 1,N"))]
    keys = {t: program_key(canonical_text(t)) for t in texts}
    pool = EnginePool(max_shards=1)
    wrong: list[str] = []

    def worker(offset: int) -> None:
        for i in range(300):
            text = texts[(offset + i) % len(texts)]
            if pool.shard_for(text).key != keys[text]:
                wrong.append(text)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert not wrong
    shard = next(iter(pool._shards.values()))
    assert set(pool._aliases) == shard.texts
    assert pool._alias_chars == sum(map(len, pool._aliases))
