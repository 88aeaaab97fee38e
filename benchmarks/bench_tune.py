"""E17 — the guided autotuner's two claims: the winner it returns is
never slower than the untuned default order (the baseline is always in
the measured set, so this holds by construction — the gate catches a
driver that stops including it), and a warm rerun is served from the
persistent cache without re-searching or re-measuring anything.

The cache-speedup assertion is deliberately loose (>= 5x) — a cold tune
measures every survivor with interleaved repetitions while a warm one
is a single JSON read, so the real ratio is orders of magnitude — but
CI runners are noisy and the gate exists to catch a cache that silently
stopped short-circuiting the search, not to pin a number.
"""

import time

import pytest

from repro import obs
from repro.kernels import cholesky, simplified_cholesky
from repro.tune import TuneStore, tune

#: Small search so the benchmark session stays quick; the tuner's
#: quality claims live in tests/tune, this file times the machinery.
FAST = dict(backend="source-vec", beam_width=2, depth=1, top_k=2, repeat=3)
PARAMS = {"N": 40}

CACHE_MIN_SPEEDUP = 5.0


@pytest.mark.parametrize("factory", [cholesky, simplified_cholesky])
def test_e17_tuned_never_slower_than_default(tmp_path, factory):
    res = tune(factory(), PARAMS, store=TuneStore(tmp_path / "cache"), **FAST)
    assert res.ok
    print(f"\n[E17] {factory.__name__} N={PARAMS['N']} tuned schedule ranking:")
    for row in sorted(res.rows, key=lambda r: r.seconds or float("inf")):
        mark = "*" if row is res.best else " "
        print(f"  {mark} {row.description:28s} {row.seconds * 1e3:9.3f} ms")
    # the default order is always measured alongside the survivors, so
    # the returned winner can never lose to it
    assert res.best.seconds <= res.baseline_seconds
    assert res.speedup >= 1.0


def test_e17_warm_rerun_skips_search(tmp_path, chol, benchmark):
    store = TuneStore(tmp_path / "cache")
    t0 = time.perf_counter()
    cold = tune(chol, PARAMS, store=store, **FAST)
    cold_s = time.perf_counter() - t0
    assert not cold.from_cache

    with obs.session() as sess:
        t0 = time.perf_counter()
        warm = tune(chol, PARAMS, store=store, **FAST)
        warm_s = time.perf_counter() - t0
        assert warm.from_cache
        assert sess.counters.get("tune.cache.hit") == 1
        # a hit must skip the search entirely: nothing scored, nothing run
        assert "tune.candidates.scored" not in sess.counters
        assert "tune.candidates.measured" not in sess.counters

    assert warm.best.description == cold.best.description
    print(f"\n[E17] cold tune {cold_s * 1e3:.1f} ms, warm {warm_s * 1e3:.1f} ms "
          f"({cold_s / warm_s:.0f}x)")
    assert cold_s >= CACHE_MIN_SPEEDUP * warm_s

    benchmark(tune, chol, PARAMS, store=store, **FAST)


def test_e17_every_execution_was_legality_checked(tmp_path):
    """The audit contract at benchmark scale: re-verify that each program
    the tuner executed carried a Theorem-2-legal matrix."""
    from repro.dependence import analyze_dependences
    from repro.instance import Layout
    from repro.ir import parse_program
    from repro.legality.check import check_legality
    from repro.linalg import IntMatrix

    res = tune(simplified_cholesky(), {"N": 16},
               store=TuneStore(tmp_path / "cache"), **FAST)
    assert res.executed
    for record in res.executed:
        prog = parse_program(record["program"], "audit")
        matrix = IntMatrix([[int(x) for x in row] for row in record["matrix"]])
        assert check_legality(Layout(prog), matrix, analyze_dependences(prog)).legal


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
