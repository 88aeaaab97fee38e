"""Parallelism analysis on transformed imperfect nests (system S14).

The paper's §7 points out that the linear framework makes searching for
parallelism cheap: a loop of the transformed program is DOALL iff no
dependence is *carried* at its level.  This module computes carried-by
levels from ``M·d`` projections and marks parallel loops, and finds
outer-parallel unit rows for imperfect nests (the nullspace observation
lifted to instance-vector space).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dependence.depvector import DependenceMatrix
from repro.instance.layout import Layout, LoopCoord
from repro.legality.check import common_projection, lex_scan
from repro.legality.structure import recover_structure
from repro.linalg.intmat import IntMatrix

__all__ = ["LoopParallelism", "parallel_loops", "outer_parallel_unit_rows"]


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
    new_layout = recover_structure(layout, matrix).new_layout
    assert new_layout is not None
    carried_at: dict[tuple[int, ...], dict[str, None]] = {
        c.path: {} for c in new_layout.loop_coords()
    }
    for d in deps:
        common, projected = common_projection(new_layout, matrix, d)
        for level in lex_scan(projected)[1]:
            carried_at[common[level].path][f"{d.src}->{d.dst}"] = None
    return [
        LoopParallelism(c.path, c.var, tuple(carried_at[c.path]))
        for c in new_layout.loop_coords()
    ]


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
