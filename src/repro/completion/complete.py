"""Completion procedure for imperfectly nested loops (paper §6).

Given a dependence matrix and the first few rows of a desired
transformation (e.g. "make the new outermost loop scan the old L
coordinate"), the procedure appends rows producing a complete *legal*
transformation matrix — the imperfect-nest analogue of Li & Pingali's
completion for perfect nests.

The search space explored here is the permutation/reversal fragment:
every new loop row is ±(a unit vector of some old loop coordinate) and
every node's children may be reordered.  That fragment is exactly what
the paper's §6 example exercises (loop permutation of Cholesky
factorization); skewing completions can be expressed by passing them in
``extra_candidates``.

The construction is a depth-first backtracking walk over the new AST in
instance-vector order, maintaining for every dependence its three-valued
satisfaction status (Definition 6), so emitted prefixes are always
extensible to legal matrices or pruned immediately.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from repro.dependence.analyze import analyze_dependences
from repro.dependence.depvector import DependenceMatrix, DepVector
from repro.dependence.entry import zip_dot
from repro.instance.layout import EdgeCoord, Layout, LoopCoord, Path
from repro.ir.ast import Loop, Program, Statement
from repro.legality.check import lex_scan
from repro.linalg.intmat import IntMatrix
from repro.obs import counter, event, timed
from repro.util.errors import CompletionError

__all__ = ["complete_transformation", "CompletionResult"]


@dataclass
class CompletionResult:
    """A completed transformation matrix and the child orders chosen."""

    matrix: IntMatrix
    child_order: dict[Path, list[int]]


@timed("completion.complete", attr_fn=lambda program, *a, **kw: {"program": program.name})
def complete_transformation(
    program: Program,
    partial_rows: Sequence[Sequence[int]] = (),
    deps: DependenceMatrix | None = None,
    *,
    layout: Layout | None = None,
    allow_reversal: bool = False,
    allow_reorder: bool = True,
    skew_bound: int = 0,
    extra_candidates: Sequence[Sequence[int]] = (),
    node_rows: dict[Path, Sequence[int]] | None = None,
) -> CompletionResult:
    """Complete ``partial_rows`` (a prefix of the new matrix) to a full
    legal transformation matrix.

    ``node_rows`` optionally forces the label row of specific loop nodes
    (by their old AST path) — useful for stating intent like "this
    subtree's outermost loop scans coordinate c" on forest programs,
    where the row position depends on child reordering.

    Raises :class:`CompletionError` when no completion exists within the
    candidate fragment.
    """
    layout = layout or Layout(program)
    if deps is None:
        deps = analyze_dependences(program)
    n = layout.dimension
    partial = [tuple(int(x) for x in r) for r in partial_rows]
    for r in partial:
        if len(r) != n:
            raise CompletionError(f"partial row length {len(r)} != layout dimension {n}")

    loop_cols = {layout.index(c): c for c in layout.loop_coords()}

    dep_list = list(deps)

    rows: list[tuple[int, ...]] = []
    child_order: dict[Path, list[int]] = {}
    used_loop_cols: set[int] = set()

    def loop_candidates(path: Path) -> list[tuple[int, ...]]:
        """Candidate label rows for the new loop at old node ``path``."""
        out: list[tuple[int, ...]] = []
        own = layout.index(LoopCoord(path, layout.node_at(path).var))  # type: ignore[union-attr]
        ordering = [own] + [i for i in sorted(loop_cols) if i != own]
        for i in ordering:
            if i in used_loop_cols:
                continue
            unit = tuple(1 if j == i else 0 for j in range(n))
            out.append(unit)
            if allow_reversal:
                out.append(tuple(-x for x in unit))
        if skew_bound > 0:
            # skewed rows e_i + f*e_j over loop coordinates, small |f|
            for i in ordering:
                if i in used_loop_cols:
                    continue
                for j in sorted(loop_cols):
                    if j == i:
                        continue
                    for f in range(1, skew_bound + 1):
                        for sf in (f, -f):
                            row = [0] * n
                            row[i] = 1
                            row[j] = sf
                            out.append(tuple(row))
        for extra in extra_candidates:
            out.append(tuple(int(x) for x in extra))
        return out

    def solve(path: Path, pending: frozenset[int]) -> bool:
        """Emit the block of old node ``path``; returns True on success.

        ``pending`` indexes dependences not yet definitely satisfied by
        outer loop levels.
        """
        node = layout.node_at(path) if path else None
        if isinstance(node, Statement):
            return True

        # -- 1. loop label row -------------------------------------------
        def after_label(pending2: frozenset[int]) -> bool:
            children = layout.children_of(path)
            c = len(children)
            # -- 2. child permutation + edge rows --------------------------
            # forced edges from partial rows?
            edge_positions = list(range(len(rows), len(rows) + c)) if c >= 2 else []
            lca_constraints = [
                (d_i, dep_list[d_i])
                for d_i in pending2
                if _lca_children(layout, dep_list[d_i], path, c) is not None
            ]

            for sigma in _permutations(c, allow_reorder):
                counter("completion.child_orders_tried")
                if c >= 2:
                    ok = True
                    # check partial-row forcing
                    trial_rows = []
                    for a in range(c):
                        new_child = c - 1 - a
                        old_child = sigma[new_child]
                        col = layout.index(EdgeCoord(path, old_child))
                        unit = tuple(1 if j == col else 0 for j in range(n))
                        pos = edge_positions[a]
                        if pos < len(partial) and partial[pos] != unit:
                            ok = False
                            break
                        trial_rows.append(unit)
                    if not ok:
                        continue
                    # check syntactic-order constraints for cross-child deps
                    position = {old: new for new, old in enumerate(sigma)}
                    violated = False
                    for d_i, d in lca_constraints:
                        ca, cb = _lca_children(layout, d, path, c)
                        if d.src == d.dst:
                            continue
                        if position[ca] > position[cb]:
                            violated = True
                            break
                    if violated:
                        continue
                    rows.extend(trial_rows)
                else:
                    sigma = list(range(c))
                child_order[path] = list(sigma)

                # cross-child deps in the same relative order are satisfied
                # syntactically; drop them from pending for the recursion.
                pending3 = set(pending2)
                if c >= 1:
                    position = {old: new for new, old in enumerate(sigma)}
                    for d_i, d in lca_constraints:
                        if d.src == d.dst:
                            continue
                        ca, cb = _lca_children(layout, d, path, c)
                        if ca != cb and position[ca] < position[cb]:
                            pending3.discard(d_i)

                # -- 3. recurse into children in new order, rightmost first --
                saved_len = len(rows)
                success = True
                for k in reversed(range(c)):
                    old_child = sigma[k]
                    child_path = path + (old_child,)
                    # restrict to deps fully inside this child
                    child_pending = frozenset(
                        d_i
                        for d_i in pending3
                        if _inside(layout, dep_list[d_i], child_path)
                    )
                    if not solve(child_path, child_pending):
                        success = False
                        break
                if success:
                    return True
                del rows[saved_len:]
                if c >= 2:
                    del rows[len(rows) - c :]
                child_order.pop(path, None)
            return False

        if isinstance(node, Loop):
            pos = len(rows)
            if pos < len(partial):
                candidates = [partial[pos]]
            elif node_rows and path in node_rows:
                candidates = [tuple(int(x) for x in node_rows[path])]
            else:
                candidates = loop_candidates(path)
            for row in candidates:
                counter("completion.rows_tried")
                # Definition-6 screening for deps whose statements share
                # this loop (i.e. both inside this node).
                new_pending = set(pending)
                bad: DepVector | None = None
                for d_i in pending:
                    d = dep_list[d_i]
                    if not _inside(layout, d, path):
                        continue
                    sign, _ = lex_scan((zip_dot(row, d.entries),))
                    if sign == "may-be-negative":
                        bad = d
                        break
                    if sign == "positive":
                        new_pending.discard(d_i)
                if bad is not None:
                    counter("completion.rows_pruned")
                    event(
                        "complete", "reject",
                        "row would let a dependence run backwards at this level",
                        row=str(list(row)), dep=str(bad), at=str(path),
                    )
                    continue
                used_here = _unit_loop_col(row, loop_cols)
                if used_here is not None and used_here in used_loop_cols:
                    continue
                rows.append(row)
                if used_here is not None:
                    used_loop_cols.add(used_here)
                if after_label(frozenset(new_pending)):
                    return True
                counter("completion.backtracks")
                rows.pop()
                if used_here is not None:
                    used_loop_cols.discard(used_here)
            return False
        # virtual root: no label row
        return after_label(pending)

    all_pending = frozenset(range(len(dep_list)))
    if not solve((), all_pending):
        event(
            "complete", "reject",
            "no legal completion in the permutation/reversal fragment",
            program=program.name,
        )
        raise CompletionError("no legal completion in the permutation/reversal fragment")
    matrix = IntMatrix(rows)
    event(
        "complete", "accept",
        "completion found in the permutation/reversal fragment",
        program=program.name,
        matrix=str([list(r) for r in rows]),
        child_order=str({str(k): v for k, v in sorted(child_order.items())}),
    )
    if matrix.shape != (n, n):  # pragma: no cover - structural invariant
        raise CompletionError("internal error: completed matrix has wrong shape")
    return CompletionResult(matrix, dict(child_order))


def _unit_loop_col(row: tuple[int, ...], loop_cols: dict[int, LoopCoord]) -> int | None:
    nz = [(j, v) for j, v in enumerate(row) if v != 0]
    if len(nz) == 1 and abs(nz[0][1]) == 1 and nz[0][0] in loop_cols:
        return nz[0][0]
    return None


def _inside(layout: Layout, d: DepVector, path: Path) -> bool:
    """Both endpoints of the dependence lie strictly inside ``path``."""
    ps = layout.statement_path(d.src)
    pd = layout.statement_path(d.dst)
    return ps[: len(path)] == path and pd[: len(path)] == path and len(ps) > len(path) and len(pd) > len(path)


def _lca_children(layout: Layout, d: DepVector, path: Path, c: int):
    """If both endpoints are inside ``path``, the child indices their
    paths descend through; None otherwise."""
    if not _inside(layout, d, path):
        return None
    ps = layout.statement_path(d.src)
    pd = layout.statement_path(d.dst)
    return ps[len(path)], pd[len(path)]


def _permutations(c: int, allow_reorder: bool):
    if c <= 1:
        yield list(range(c))
        return
    if not allow_reorder:
        yield list(range(c))
        return
    # identity first for determinism, then the rest
    yield list(range(c))
    for p in itertools.permutations(range(c)):
        lp = list(p)
        if lp != list(range(c)):
            yield lp
