"""Dependence graphs and Allen–Kennedy maximal distribution."""

import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.analysis import dependence_graph, distribution_plan, maximal_distribution
from repro.analysis.graph import Digraph, _stable_topo, strongly_connected_components
from repro.api import load_file
from repro.dependence import analyze_dependences
from repro.interp import ArrayStore, execute, outputs_close
from repro.ir import Loop, Program, parse_program, program_to_str
from repro.kernels import jacobi_1d

PIPELINE = """
param N
real A(0:N+1), B(0:N+1), C(0:N+1)
do I = 1..N
  S1: A(I) = f(I)
  S2: B(I) = A(I) * 2
  S3: C(I) = B(I) + A(I)
enddo
"""


def equivalent(p, q, params):
    init = ArrayStore(p, params).snapshot()
    s0, _ = execute(p, params, arrays=init)
    s1, _ = execute(q, params, arrays=init)
    return outputs_close(s0.snapshot(), s1.snapshot())


class TestDependenceGraph:
    def test_pipeline_is_a_dag(self):
        p = parse_program(PIPELINE)
        g = dependence_graph(analyze_dependences(p), at_loop=(0,))
        assert g.nodes == ["S1", "S2", "S3"]
        assert set(g.edges) == {("S1", "S2"), ("S1", "S3"), ("S2", "S3")}
        # a DAG: every statement is its own component
        assert sorted(strongly_connected_components(g)) == [["S1"], ["S2"], ["S3"]]
        assert g.has_edge("S1", "S2") and not g.has_edge("S2", "S1")
        assert all(d.src == "S1" and d.dst == "S2" for d in g.deps("S1", "S2"))
        assert g.deps("S1", "S2")

    def test_cholesky_is_one_scc(self, simp_chol):
        g = dependence_graph(analyze_dependences(simp_chol), at_loop=(0,))
        assert g.has_edge("S1", "S2") and g.has_edge("S2", "S1")
        assert sorted(map(sorted, strongly_connected_components(g))) == [["S1", "S2"]]

    def test_outer_carried_edges_dropped(self):
        # S2->S1 back edge carried by T: invisible at the inner loop
        p = parse_program(
            "param N\nreal A(0:N+1), B(0:N+1)\n"
            "do T = 1..N\n"
            "  do I = 1..N\n"
            "    S1: A(I) = B(I) + f(T)\n"
            "    S2: B(I) = A(I) * 2\n"
            "  enddo\n"
            "enddo"
        )
        deps = analyze_dependences(p)
        g_inner = dependence_graph(deps, at_loop=(0, 0))
        assert not g_inner.has_edge("S2", "S1")
        g_outer = dependence_graph(deps, at_loop=(0,))
        assert g_outer.has_edge("S2", "S1")

    def test_full_graph_has_all_statements(self, chol):
        g = dependence_graph(analyze_dependences(chol))
        assert set(g.nodes) == {"S1", "S2", "S3"}


class TestDistributionPlan:
    def test_pipeline_fully_splittable(self):
        p = parse_program(PIPELINE)
        plan = distribution_plan(p)
        assert plan[(0,)] == [[0], [1], [2]]

    def test_cholesky_unsplittable(self, chol):
        plan = distribution_plan(chol)
        assert plan[(0,)] == [[0, 1, 2]]

    def test_lu_unsplittable(self, lu):
        plan = distribution_plan(lu)
        assert len(plan[(0,)]) == 1

    def test_jacobi_time_loop_unsplittable(self):
        p = jacobi_1d()
        plan = distribution_plan(p)
        assert len(plan[(0,)]) == 1  # B feeds back into A across sweeps


class TestMaximalDistribution:
    def test_factorizations_unchanged(self, simp_chol, chol, lu):
        for p in (simp_chol, chol, lu):
            out = maximal_distribution(p)
            assert program_to_str(out, header=False) == program_to_str(p, header=False)

    def test_pipeline_fully_distributed(self):
        p = parse_program(PIPELINE)
        out = maximal_distribution(p)
        assert len(out.body) == 3
        assert all(isinstance(n, Loop) and len(n.body) == 1 for n in out.body)
        assert equivalent(p, out, {"N": 6})

    def test_mixed_recurrence_splits(self):
        p = parse_program(
            "param N\nreal A(0:N+1), B(0:N+1)\n"
            "do I = 1..N\n"
            "  S1: A(I) = A(I-1) + f(I)\n"
            "  S2: B(I) = A(I) * 2\n"
            "enddo"
        )
        out = maximal_distribution(p)
        assert len(out.body) == 2
        assert equivalent(p, out, {"N": 6})

    def test_nested_distribution(self):
        p = parse_program(
            "param N\nreal A(0:N+1,0:N+1), B(0:N+1,0:N+1)\n"
            "do T = 1..3\n"
            "  do I = 1..N\n"
            "    S1: A(T,I) = f(T,I)\n"
            "    S2: B(T,I) = A(T,I) + 1\n"
            "  enddo\n"
            "enddo"
        )
        out = maximal_distribution(p)
        # both levels split: the outer T loop has independent bodies too
        assert equivalent(p, out, {"N": 5})
        total_loops = len(out.all_loops())
        assert total_loops > len(p.all_loops())

    def test_interleaved_scc_blocked(self):
        # S1 -> S2 -> S1 cycle at the loop level: no split
        p = parse_program(
            "param N\nreal A(0:N+1), B(0:N+1)\n"
            "do I = 1..N\n"
            "  S1: A(I) = B(I-1) + 1\n"
            "  S2: B(I) = A(I) * 2\n"
            "enddo"
        )
        out = maximal_distribution(p)
        assert program_to_str(out, header=False) == program_to_str(p, header=False)


# ---------------------------------------------------------------------------
# the in-repo SCC / condensation code against brute force, and the plans
# against what the graph-library implementation produced before it was removed
# ---------------------------------------------------------------------------

NODES = st.integers(min_value=0, max_value=7)


def reachability(n, edges):
    """reach[u] = every node reachable from u, itself included."""
    reach = {u: {u} for u in range(n)}
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            for w in range(n):
                if u in reach[w] and not reach[v] <= reach[w]:
                    reach[w] |= reach[v]
                    changed = True
    return reach


@given(
    n=st.integers(min_value=1, max_value=8),
    raw_edges=st.lists(st.tuples(NODES, NODES), max_size=24),  # self-loops, duplicates
)
@settings(max_examples=300, deadline=None)
def test_scc_and_stable_topo_match_brute_force(n, raw_edges):
    edges = [(u % n, v % n) for u, v in raw_edges]
    g = Digraph(range(n))
    for u, v in edges:
        g.add_edge(u, v)
    assert g.nodes == list(range(n))
    assert set(g.edges) == set(edges)

    reach = reachability(n, edges)
    sccs = strongly_connected_components(g)
    # a partition into the classes of mutual reachability ...
    assert sorted(u for scc in sccs for u in scc) == list(range(n))
    for scc in sccs:
        for u in scc:
            assert {v for v in range(n) if v in reach[u] and u in reach[v]} == set(scc)
    # ... emitted sinks first: nothing reaches a component emitted later
    for i, scc in enumerate(sccs):
        for later in sccs[i + 1:]:
            assert later[0] not in reach[scc[0]]

    groups = sorted(sorted(scc) for scc in sccs)
    ordered = _stable_topo(groups, g)
    assert sorted(ordered) == groups
    for i, grp in enumerate(ordered):
        # topological ...
        for later in ordered[i + 1:]:
            assert grp[0] not in reach[later[0]]
        # ... and, among the groups that were ready, the first in source order
        ready = [
            h for h in ordered[i:]
            if not any(o[0] != h[0] and h[0] in reach[o[0]] for o in ordered[i:])
        ]
        assert grp == min(ready)


GOLDEN = Path(__file__).parent / "golden" / "distribution_plans.json"


def _golden_programs():
    for name in kernels.__all__:
        factory = getattr(kernels, name)
        try:
            program = factory()
        except TypeError:  # a factory that needs arguments, or a constant
            continue
        if isinstance(program, Program):
            yield f"kernel:{name}", program
    for path in sorted((Path(__file__).parents[2] / "examples").glob("*.loop")):
        yield f"example:{path.name}", load_file(str(path))


def test_distribution_plans_match_the_golden_file():
    """``golden/distribution_plans.json`` was captured from the previous,
    graph-library-backed implementation (the commit before this module
    dropped that dependency): every zoo kernel and every
    ``examples/*.loop``."""
    want = json.loads(GOLDEN.read_text())
    got = {
        key: {"/".join(map(str, path)): groups
              for path, groups in distribution_plan(program).items()}
        for key, program in _golden_programs()
    }
    assert got == want
    assert len(want) >= 26 and any(len(g) > 1 for p in want.values() for g in p.values())
