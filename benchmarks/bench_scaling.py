"""Scaling benchmarks for the framework's moving parts (supports the
§7 efficiency argument): dependence analysis vs. nest size, legality
vs. dimension, interpreter and cache-simulator throughput, FM
elimination vs. variable count.
"""

import pytest

from repro.dependence import analyze_dependences
from repro.instance import Layout
from repro.interp import CacheConfig, execute, simulate_cache
from repro.kernels import random_program
from repro.legality import check_legality
from repro.linalg import IntMatrix
from repro.polyhedra import System, ge, le, var


@pytest.mark.parametrize("seed", [3, 11, 19])
def test_scaling_dependence_analysis_random(benchmark_cold, seed):
    p = random_program(seed, max_depth=3, max_children=3)
    m = benchmark_cold(analyze_dependences, p)
    lay = Layout(p)
    print(f"\n[scaling] seed={seed}: dim={lay.dimension}, deps={len(m)}")


@pytest.mark.parametrize("depth", [2, 4, 6, 8])
def test_scaling_fm_projection(benchmark, depth):
    """Triangular chains of increasing depth through full projection."""
    vs = [var(f"x{i}") for i in range(depth)]
    N = var("N")
    cs = [ge(vs[0], 1), le(vs[0], N)]
    for a, b in zip(vs, vs[1:]):
        cs += [ge(b, a + 1), le(b, N)]
    s = System(cs)

    out = benchmark(lambda: s.project_onto(("N",)))
    assert not out[0].is_trivially_false()


@pytest.mark.parametrize("n", [8, 16, 32])
def test_scaling_interpreter(benchmark, n):
    """Interpreter throughput on Cholesky (O(n^3) instances)."""
    from repro.kernels import cholesky

    p = cholesky()

    def run():
        _, t = execute(p, {"N": n}, trace=True)
        return len(t)

    count = benchmark.pedantic(run, rounds=2, iterations=1)
    print(f"\n[scaling] N={n}: {count} instances")


def test_scaling_cache_simulator(benchmark):
    """Simulator throughput on a 100k-access trace."""
    import numpy as np

    rng = np.random.default_rng(7)
    addrs = (rng.integers(0, 1 << 20, size=100_000) * 8).astype(np.int64)
    stats = benchmark.pedantic(
        lambda: simulate_cache(addrs, CacheConfig()), rounds=2, iterations=1
    )
    assert stats.accesses == 100_000


def test_scaling_legality_dimension(benchmark, chol, chol_layout, chol_deps):
    """Definition-6 test cost on the 7-dimensional Cholesky space."""
    m = IntMatrix.identity(chol_layout.dimension)
    r = benchmark(check_legality, chol_layout, m, chol_deps)
    assert r.legal
