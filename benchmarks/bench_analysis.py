"""E12 — parallelism detection and framework efficiency (paper §1/§7):
finding a parallel loop is a nullspace/row scan, not a search.
"""


from repro.analysis import outer_parallel_unit_rows, parallel_loops
from repro.dependence import analyze_dependences
from repro.instance import Layout
from repro.legality import check_legality
from repro.linalg import IntMatrix
from repro.perfect import PerfectDeps, outermost_parallel_row


def test_e12_parallel_loops_cholesky(benchmark, chol, chol_layout, chol_deps):
    marks = benchmark(parallel_loops, chol_layout, IntMatrix.identity(7), chol_deps)
    print("\n[E12] DOALL verdicts for right-looking Cholesky loops:")
    for m in marks:
        print(f"  {m.var:2s} parallel={m.is_parallel}  carried={list(m.carried)}")
    by_var = {m.var: m for m in marks}
    assert not by_var["K"].is_parallel
    assert by_var["I"].is_parallel and by_var["J"].is_parallel and by_var["L"].is_parallel


def test_e12_nullspace_parallel_direction(benchmark):
    """Perfect-nest claim: a parallel outer loop is a nullspace vector
    of the dependence matrix."""
    deps = PerfectDeps.parse(3, [[1, 1, 0], [1, 0, 1]])

    row = benchmark(outermost_parallel_row, deps)
    print(f"\n[E12] parallel direction for deps (1,1,0),(1,0,1): {row}")
    assert row is not None
    for col in deps.columns:
        assert sum(r * e.constant() for r, e in zip(row, col)) == 0


def test_e12_unit_row_scan_imperfect(benchmark):
    from repro.ir import parse_program

    p = parse_program(
        "param N\nreal A(0:N+1,0:N+1)\n"
        "do I = 1..N\n"
        "  do J = 1..N\n   S1: A(I,J) = A(I,J-1)\n  enddo\n"
        "  S2: A(I,1) = A(I,N) * 0.5\n"
        "enddo"
    )
    lay = Layout(p)
    deps = analyze_dependences(p)
    rows = benchmark(outer_parallel_unit_rows, lay, deps)
    print(f"\n[E12] outer-parallel unit rows: {[c.var for c in rows]} (expected ['I'])")
    assert [c.var for c in rows] == ["I"]


def test_e12_full_framework_latency(benchmark, chol, chol_deps, chol_layout):
    """Analysis + legality + parallelism for one candidate — the cost of
    evaluating one point of the search space the paper argues is cheap."""
    from repro.legality import check_legality
    from repro.transform import permutation

    def evaluate():
        t = permutation(chol_layout, "J", "L")
        r = check_legality(chol_layout, t.matrix, chol_deps)
        marks = parallel_loops(chol_layout, t.matrix, chol_deps)
        return r.legal, sum(m.is_parallel for m in marks)

    legal, n_par = benchmark(evaluate)
    assert legal and n_par >= 2


def test_e14_transformation_search(benchmark, chol):
    """Extension: the complete 'find a desirable transformation'
    pipeline — enumerate leads, complete, generate, rank by cache
    misses.  The left-looking variant wins beyond cache capacity."""
    from repro.analysis import search_loop_orders
    from repro.interp import CacheConfig

    def run():
        return search_loop_orders(
            chol, {"N": 44}, verify=False,
            cache=CacheConfig(size_bytes=4 * 1024, line_bytes=64, ways=2),
        )

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n[E14] loop-order search on Cholesky (N=44):")
    for r in results:
        print(f"  {r}")
    assert results[0].lead_var == "L"


def test_e15_reuse_distance_engine(benchmark, chol):
    """Guard for the O(n log n) Fenwick reuse-distance engine: correct
    against the textbook O(n²) LRU stack on a modest trace, timed on a
    long one."""
    import numpy as np

    from repro.analysis.locality import reuse_distances
    from repro.interp import execute
    from repro.interp.cache import trace_addresses

    def naive(trace, store, line_bytes=64):
        lines = (trace_addresses(trace, store) // line_bytes).tolist()
        stack, seen = [], set()
        out = np.empty(len(lines), dtype=np.int64)
        for i, ln in enumerate(lines):
            if ln in seen:
                idx = stack.index(ln)
                out[i] = len(stack) - 1 - idx
                stack.pop(idx)
            else:
                out[i] = -1
                seen.add(ln)
            stack.append(ln)
        return out

    small_store, small_trace = execute(chol, {"N": 12}, trace=True)
    assert np.array_equal(
        reuse_distances(small_trace, small_store), naive(small_trace, small_store)
    )

    store, trace = execute(chol, {"N": 40}, trace=True)
    distances = benchmark(reuse_distances, trace, store)
    print(f"\n[E15] reuse distances over {len(distances)} accesses "
          f"(cold fraction {float((distances < 0).mean()):.3f})")
    assert len(distances) > 40_000


def test_e12_wavefront_parallelization(benchmark):
    """§7's point in action on Gauss–Seidel: no loop is parallel as
    written; after a legal skew the inner loop is DOALL — found by
    matrix reasoning alone and verified by execution."""
    from repro.codegen import generate_code
    from repro.interp import check_equivalence
    from repro.kernels import gauss_seidel_1d
    from repro.transform import compose, permutation, skew

    p = gauss_seidel_1d()
    lay = Layout(p)
    deps = analyze_dependences(p)

    def run():
        before = parallel_loops(lay, IntMatrix.identity(lay.dimension), deps)
        # time-skew then interchange: new outer = I + 2S (the wavefront),
        # new inner = S (independent points on each wavefront)
        t = compose(skew(lay, "I", "S", 2), permutation(lay, "S", "I"))
        r = check_legality(lay, t.matrix, deps)
        after = parallel_loops(lay, t.matrix, deps)
        return before, r.legal, after, t

    before, legal, after, t = benchmark(run)
    print("\n[E12w] Gauss-Seidel as written:",
          {m.var: m.is_parallel for m in before})
    print(f"[E12w] skew+interchange legal: {legal}")
    print("[E12w] after the wavefront transform:",
          {m.var: m.is_parallel for m in after})
    assert legal
    assert not any(m.is_parallel for m in before)
    # after the transform, the *inner* loop (the old S coordinate,
    # scanning points of one wavefront) carries nothing
    inner = after[-1]
    assert inner.is_parallel

    g = generate_code(p, t.matrix, deps)
    rep = check_equivalence(p, g.program, {"N": 8, "T": 4}, env_map=g.env_map())
    assert rep["ok"]
