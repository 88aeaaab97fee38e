"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's artifacts (figures,
matrices, code listings) or quantified claims, times the pipeline piece
that produces it, and asserts the paper's qualitative *shape* (who
wins, what is legal, which columns appear) with plain asserts — the
assert is the gate; nothing is written at session end.  See
EXPERIMENTS.md for the experiment index and the paper-vs-measured
record; performance over time is BENCH_history.jsonl, fed by
ledger/run.py (benchmarks/history.py).
"""

from __future__ import annotations

import pytest

from repro.dependence import analyze_dependences
from repro.instance import Layout
from repro.kernels import augmentation_example, cholesky, simplified_cholesky
from repro.polyhedra import engine


@pytest.fixture
def benchmark_cold(benchmark):
    """``benchmark`` with the engine cleared before every round.  A plain
    ``benchmark(analyze_dependences, p)`` times a hit in the engine's
    dependence memo from round two on; anything that means to time the
    analysis itself goes through here."""

    def run(fn, *args, rounds=5, **kwargs):
        return benchmark.pedantic(
            fn, args=args, kwargs=kwargs, setup=engine.cache_clear,
            rounds=rounds, iterations=1,
        )

    return run


@pytest.fixture(scope="session")
def simp_chol():
    return simplified_cholesky()


@pytest.fixture(scope="session")
def simp_chol_layout(simp_chol):
    return Layout(simp_chol)


@pytest.fixture(scope="session")
def simp_chol_deps(simp_chol):
    return analyze_dependences(simp_chol)


@pytest.fixture(scope="session")
def chol():
    return cholesky()


@pytest.fixture(scope="session")
def chol_layout(chol):
    return Layout(chol)


@pytest.fixture(scope="session")
def chol_deps(chol):
    return analyze_dependences(chol)


@pytest.fixture(scope="session")
def aug():
    return augmentation_example()
