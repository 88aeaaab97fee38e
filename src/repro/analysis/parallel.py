"""Parallelism analysis on transformed imperfect nests (system S14).

The paper's §7 points out that the linear framework makes searching for
parallelism cheap: a loop of the transformed program is DOALL iff no
dependence is *carried* at its level.  This module computes carried-by
levels from ``M·d`` projections and marks parallel loops — of a
schedule, and of a program (:func:`doall_loops`, what the vectorizing
backends ask) — and finds outer-parallel unit rows for imperfect nests
(the nullspace observation lifted to instance-vector space).
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Mapping

from repro.dependence.analyze import analyze_dependences
from repro.dependence.depvector import DependenceMatrix
from repro.dependence.entry import zip_dot
from repro.instance.layout import Layout, LoopCoord
from repro.ir.ast import Derivation, Guard, Loop, Program
from repro.legality.check import common_projection, lex_scan
from repro.legality.structure import recover_structure
from repro.linalg.intmat import IntMatrix
from repro.obs import counter, event
from repro.util.errors import ReproError

__all__ = [
    "LoopParallelism", "parallel_loops", "statement_loop_carriers",
    "doall_loops", "outer_parallel_unit_rows",
]


@dataclass(frozen=True)
class LoopParallelism:
    """Per-new-loop verdict: which dependences it may carry."""

    path: tuple[int, ...]
    var: str
    carried: tuple[str, ...]          # dependences this loop may carry

    @property
    def is_parallel(self) -> bool:
        return not self.carried


def parallel_loops(
    layout: Layout, matrix: IntMatrix, deps: DependenceMatrix
) -> list[LoopParallelism]:
    """Mark every loop of the transformed program as DOALL or not.

    A dependence may be carried at every common-loop level whose entry
    of ``M·d`` may be nonzero while all outer entries may be zero
    (:func:`~repro.legality.check.lex_scan`).  A loop carrying no
    dependence is DOALL.
    """
    new_layout, carried_at, _ = _carriers(layout, matrix, deps, {})
    return [
        LoopParallelism(c.path, c.var, tuple(carried_at[c.path]))
        for c in new_layout.loop_coords()
    ]


def statement_loop_carriers(
    derivation: Derivation,
) -> dict[tuple[str, int], tuple[str, ...]]:
    """The dependences the ``depth``-th loop around each statement of a
    generated program may carry, keyed ``(label, depth)`` outside-in.

    Shared loops get :func:`parallel_loops`' verdict.  A statement's
    §5.4 augmented loops lie inside all its shared loops and enclose no
    other statement, so they can only carry its self-dependences: each
    self-dependence's projection is extended by its augmented rows and
    the one scan runs over the whole statement-local sequence.
    """
    layout = derivation.layout
    new_layout, carried_at, extra_at = _carriers(
        layout, derivation.matrix, derivation.deps, derivation.extra_rows
    )
    out: dict[tuple[str, int], tuple[str, ...]] = {}
    for label in layout.statement_labels():
        shared = new_layout.surrounding_loop_coords(label)
        for depth, c in enumerate(shared):
            out[label, depth] = tuple(carried_at[c.path])
        for k in range(len(derivation.extra_rows.get(label, ()))):
            out[label, len(shared) + k] = tuple(extra_at[label, k])
    return out


def doall_loops(program: Program) -> frozenset[tuple[int, ...]]:
    """Paths (child indices from the program body, through loops and
    guards) of the loops of ``program`` that carry no dependence.

    A generated program is judged by the schedule it carries: M·D marks
    its loops (:func:`statement_loop_carriers`), joined by (statement
    label, depth) — never by loop name, which two sibling loops may
    share — and ``backend.doall_derived`` counts it.  Any other program
    is analysed (§3) and marked under the identity; when the analysis
    cannot describe it (guards, hull bounds, ...) nothing is DOALL and
    ``backend.doall_analysis_failures`` counts it.  Each loop's verdict
    is a ``vectorize`` event with ``basis="schedule"`` or
    ``basis="analysis"``.
    """
    if program.derivation is None:
        return _analysed_doall(program)
    counter("backend.doall_derived")
    carriers = statement_loop_carriers(program.derivation)
    out: set[tuple[int, ...]] = set()

    def walk(nodes, path: tuple[int, ...], depth: int) -> None:
        for j, node in enumerate(nodes):
            here = path + (j,)
            if isinstance(node, Guard):
                walk(node.body, here, depth)
            elif isinstance(node, Loop):
                verdicts = [carriers.get((s.label, depth)) for s in node.statements()]
                if not verdicts or None in verdicts:
                    event("vectorize", "reject",
                          "no schedule row for this loop; it stays scalar",
                          loop=node.var, basis="schedule")
                else:
                    _verdict(node.var, [d for v in verdicts for d in v], "schedule")
                    if not any(verdicts):
                        out.add(here)
                walk(node.body, here, depth + 1)

    walk(program.body, (), 0)
    return frozenset(out)


def _analysed_doall(program: Program) -> frozenset[tuple[int, ...]]:
    try:
        layout = Layout(program)
        deps = analyze_dependences(program, layout=layout)
        marks = parallel_loops(layout, IntMatrix.identity(layout.dimension), deps)
    except ReproError as exc:
        counter("backend.doall_analysis_failures")
        event(
            "vectorize", "reject",
            "dependence analysis cannot describe this program; "
            "every loop stays scalar",
            program=program.name, detail=str(exc), basis="analysis",
        )
        return frozenset()
    for m in marks:
        _verdict(m.var, m.carried, "analysis")
    return frozenset(m.path for m in marks if m.is_parallel)


def _verdict(loop: str, carried, basis: str) -> None:
    if carried:
        event("vectorize", "reject",
              f"loop carries dependence(s): {', '.join(dict.fromkeys(carried))}",
              loop=loop, basis=basis)
    else:
        event("vectorize", "accept", "loop is DOALL (no carried dependence)",
              loop=loop, basis=basis)


def _carriers(
    layout: Layout,
    matrix: IntMatrix,
    deps: DependenceMatrix,
    extra_rows: Mapping[str, tuple[tuple[int, ...], ...]],
):
    """One :func:`~repro.legality.check.lex_scan` per dependence: the
    dependences each new loop (by path) and each augmented loop (by
    ``(label, k)``) may carry."""
    new_layout = recover_structure(layout, matrix).new_layout
    assert new_layout is not None
    carried_at: dict[tuple[int, ...], dict[str, None]] = {
        c.path: {} for c in new_layout.loop_coords()
    }
    extra_at: dict[tuple[str, int], dict[str, None]] = {
        (label, k): {} for label, rows in extra_rows.items() for k in range(len(rows))
    }
    for d in deps:
        common, projected = common_projection(new_layout, matrix, d)
        rows = extra_rows.get(d.src, ()) if d.src == d.dst else ()
        if rows:
            own = d.project(layout.surrounding_loop_positions(d.src))
            projected += tuple(zip_dot(r, own) for r in rows)
        for level in lex_scan(projected)[1]:
            at = (
                carried_at[common[level].path] if level < len(common)
                else extra_at[d.src, level - len(common)]
            )
            at[f"{d.src}->{d.dst}"] = None
    return new_layout, carried_at, extra_at


def outer_parallel_unit_rows(layout: Layout, deps: DependenceMatrix) -> list[LoopCoord]:
    """Old loop coordinates usable as a parallel outermost loop: unit
    rows whose dot with every dependence is exactly zero.

    This is the imperfect-nest form of "find a vector in the nullspace
    of the dependence matrix" — restricted to unit vectors so the result
    is directly a loop of the source program.
    """
    out = []
    for coord in layout.loop_coords():
        i = layout.index(coord)
        ok = True
        for d in deps:
            if not d.entries[i].is_zero():
                ok = False
                break
        if ok:
            out.append(coord)
    return out
