"""Statement-level dependence graphs and maximal loop distribution.

The paper's §1 observes that *some* imperfect nests can be converted to
perfect ones by loop distribution, and that factorization codes cannot.
This module makes that observation algorithmic in the classical
Allen–Kennedy style:

* :func:`dependence_graph` — statements as nodes, dependences as edges
  (a :class:`Digraph`), optionally restricted to the dependences *not*
  carried outside a given loop;
* :func:`maximal_distribution` — recursively split every multi-child
  loop around the strongly connected components of its level-restricted
  dependence graph, in topological order.  Factorization codes collapse
  into one SCC (no split — matching the paper); pipelines split fully.

The graphs have a handful of nodes, so the digraph and the Tarjan SCC
pass below are plain dictionaries and lists; nothing outside the
standard library is imported.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.dependence.analyze import analyze_dependences
from repro.dependence.depvector import DependenceMatrix
from repro.instance.layout import Layout, Path
from repro.ir.ast import Loop, Program
from repro.legality.check import surely_carried
from repro.util.errors import TransformError

__all__ = [
    "Digraph", "dependence_graph", "maximal_distribution", "distribution_plan",
    "strongly_connected_components",
]


class Digraph:
    """A small directed graph: nodes in insertion order, at most one
    edge per ordered pair, and per edge the list of dependences that
    induced it (``deps(u, v)``)."""

    def __init__(self, nodes: Iterable[Hashable] = ()):
        self._succ: dict[Hashable, dict[Hashable, list]] = {n: {} for n in nodes}

    def add_edge(self, u: Hashable, v: Hashable) -> list:
        """Ensure the edge ``u -> v`` (and both endpoints) and return
        its dependence list."""
        self._succ.setdefault(v, {})
        return self._succ.setdefault(u, {}).setdefault(v, [])

    @property
    def nodes(self) -> list:
        return list(self._succ)

    @property
    def edges(self) -> list[tuple]:
        return [(u, v) for u, out in self._succ.items() for v in out]

    def successors(self, u: Hashable) -> list:
        return list(self._succ[u])

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        return v in self._succ.get(u, ())

    def deps(self, u: Hashable, v: Hashable) -> list:
        return self._succ[u][v]


def strongly_connected_components(g: Digraph) -> list[list]:
    """Tarjan's algorithm: the SCCs of ``g``, each emitted only after
    every SCC it can reach (reverse topological order of the
    condensation).  Recursive — depth is bounded by the node count, here
    the children of one loop."""
    index: dict = {}
    low: dict = {}
    stack: list = []
    sccs: list[list] = []

    def visit(u) -> None:
        index[u] = low[u] = len(index)
        stack.append(u)
        for v in g.successors(u):
            if v not in index:
                visit(v)
                low[u] = min(low[u], low[v])
            elif v in stack:
                low[u] = min(low[u], index[v])
        if low[u] == index[u]:
            cut = stack.index(u)
            sccs.append(stack[cut:])
            del stack[cut:]

    for u in g.nodes:
        if u not in index:
            visit(u)
    return sccs


def dependence_graph(
    deps: DependenceMatrix, *, at_loop: Path | None = None
) -> Digraph:
    """Statement-level dependence graph.

    With ``at_loop``, only dependences relevant to distributing that
    loop are kept: both endpoints inside the loop, and the dependence
    not already carried by a loop *enclosing* it (those are satisfied
    regardless of how the body is split).
    """
    layout = deps.layout
    g = Digraph(
        label for label in layout.statement_labels()
        if at_loop is None or _inside(layout, label, at_loop)
    )
    outer_positions: list[int] = []
    if at_loop is not None:
        outer_positions = [
            layout.index(c)
            for c in layout.loop_coords()
            if len(c.path) < len(at_loop) and at_loop[: len(c.path)] == c.path
        ]
    for d in deps:
        if at_loop is not None:
            if not (_inside(layout, d.src, at_loop) and _inside(layout, d.dst, at_loop)):
                continue
            if surely_carried(d.project(outer_positions)):
                continue
        g.add_edge(d.src, d.dst).append(d)
    return g


def _inside(layout: Layout, label: str, path: Path) -> bool:
    sp = layout.statement_path(label)
    return sp[: len(path)] == path and len(sp) > len(path)


def distribution_plan(
    program: Program, deps: DependenceMatrix | None = None
) -> dict[Path, list[list[int]]]:
    """For every multi-child loop, the finest legal grouping of its
    children: SCCs of the level dependence graph, condensed and
    topologically ordered, mapped back to child indices.

    A grouping ``[[0], [1, 2]]`` means the loop can be distributed into
    a copy with child 0 followed by a copy with children 1 and 2.
    """
    layout = Layout(program)
    if deps is None:
        deps = analyze_dependences(program)

    plan: dict[Path, list[list[int]]] = {}
    for coord in layout.loop_coords():
        node = layout.node_at(coord.path)
        assert isinstance(node, Loop)
        if len(node.body) < 2:
            continue
        g = dependence_graph(deps, at_loop=coord.path)
        # map statements to the child of this loop they live under
        child_of: dict[str, int] = {}
        for label in g.nodes:
            child_of[label] = layout.statement_path(label)[len(coord.path)]
        # collapse statements to children, keeping edges
        cg = Digraph(range(len(node.body)))
        for u, v in g.edges:
            cu, cv = child_of[u], child_of[v]
            if cu != cv:
                cg.add_edge(cu, cv)
        # the condensation's nodes, in source order (by smallest child
        # index); _stable_topo then orders them topologically, breaking
        # ties by that source order
        groups = sorted(sorted(scc) for scc in strongly_connected_components(cg))
        plan[coord.path] = _stable_topo(groups, cg)
    return plan


def _stable_topo(groups: list[list[int]], cg: Digraph) -> list[list[int]]:
    """Order groups topologically, breaking ties by source order."""
    remaining = list(groups)
    out: list[list[int]] = []
    while remaining:
        for grp in remaining:
            # grp is ready iff no other remaining group has an edge into it
            ready = True
            for other in remaining:
                if other is grp:
                    continue
                if any(cg.has_edge(u, v) for u in other for v in grp):
                    ready = False
                    break
            if ready:
                out.append(grp)
                remaining.remove(grp)
                break
        else:  # pragma: no cover - condensation is acyclic
            raise TransformError("cycle among distribution groups")
    return out


def maximal_distribution(
    program: Program, deps: DependenceMatrix | None = None
) -> Program:
    """Distribute every loop as finely as the dependences allow
    (Allen–Kennedy), outermost first, re-analyzing after each change.

    Returns the (possibly unchanged) restructured program; factorization
    codes come back unchanged.
    """
    changed = True
    current = program
    guard = 0
    while changed:
        guard += 1
        if guard > 50:  # pragma: no cover - termination backstop
            raise TransformError("maximal_distribution did not converge")
        changed = False
        plan = distribution_plan(current)
        # apply the first (outermost, leftmost) real split, then restart
        for path in sorted(plan, key=lambda p: (len(p), p)):
            groups = plan[path]
            if len(groups) <= 1:
                continue
            # contiguity: distribute() splits at one point; apply the
            # first boundary of the group structure when the groups are
            # contiguous in source order
            flat = [c for grp in groups for c in grp]
            if flat != sorted(flat):
                # needs statement reordering first; skip (conservative)
                continue
            split = len(groups[0])
            from repro.transform.distribution import distribute

            current = distribute(current, path, split)
            changed = True
            break
    return current
