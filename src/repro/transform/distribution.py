"""Loop distribution (paper §4.2).

The paper models distribution and jamming with *non-square* matrices
(they replicate or merge coordinate positions) but excludes them from
its code-generation and completion procedures.  We follow suit: this
module provides

* the non-square distribution matrix of §4.2 (for the E5 reproduction;
  jamming, its inverse, is :func:`repro.transform.tiling.fuse` at offset
  0 and has its matrix there),
* the direct AST-level ``distribute`` program transformation,
* a dependence-based legality test: distribution of a loop between two
  statement groups is legal iff no dependence runs *backward* (from the
  later group to the earlier group) under that loop unless it is
  carried by an outer loop — the classic condition, evaluated on the
  instance-vector dependence matrix.
"""

from __future__ import annotations

from typing import Sequence

from repro.dependence.depvector import DependenceMatrix
from repro.instance.layout import EdgeCoord, Layout, LoopCoord, Path
from repro.ir.ast import Loop, Node, Program
from repro.legality.check import surely_carried
from repro.linalg.intmat import IntMatrix
from repro.util.errors import TransformError

__all__ = ["distribute", "distribution_matrix", "distribution_legal"]


def _loop_at(program: Program, path: Path) -> Loop:
    node: Node | Program = program
    for j in path:
        if not isinstance(node, (Program, Loop)) or not 0 <= j < len(node.body):
            raise TransformError(f"path {path} does not name a loop")
        node = node.body[j]
    if not isinstance(node, Loop):
        raise TransformError(f"node at {path} is not a loop")
    return node


def _replace_at(program: Program, path: Path, replacement: Sequence[Node]) -> Program:
    """Replace the node at ``path`` by one or more sibling nodes."""

    def rebuild(node: Node, rest: Path) -> list[Node]:
        if not rest:
            return list(replacement)
        assert isinstance(node, Loop)
        j = rest[0]
        body: list[Node] = []
        for k, child in enumerate(node.body):
            if k == j:
                body.extend(rebuild(child, rest[1:]))
            else:
                body.append(child)
        return [node.with_body(tuple(body))]

    top: list[Node] = []
    for k, child in enumerate(program.body):
        if k == path[0]:
            top.extend(rebuild(child, path[1:]))
        else:
            top.append(child)
    return program.with_body(tuple(top))


def distribute(program: Program, path: Path, split: int) -> Program:
    """Split the loop at ``path`` into two copies: the first keeps
    children ``[:split]``, the second children ``[split:]``."""
    loop = _loop_at(program, path)
    if not (0 < split < len(loop.body)):
        raise TransformError(f"split point {split} out of range for {len(loop.body)} children")
    first = loop.with_body(loop.body[:split])
    second = loop.with_body(loop.body[split:])
    return _replace_at(program, path, [first, second])


def _coord_matrix(old: Layout, new: Layout, coord_map) -> IntMatrix:
    """Build the (new.dim x old.dim) 0/1 matrix from a coordinate map:
    ``coord_map(new_coord)`` returns one old coordinate or a list of
    old coordinates whose entries are summed (used for group edges)."""
    rows = [[0] * old.dimension for _ in range(new.dimension)]
    for i, nc in new.iter_coords():
        ocs = coord_map(nc)
        if not isinstance(ocs, list):
            ocs = [ocs]
        for oc in ocs:
            rows[i][old.index(oc)] = 1
    return IntMatrix(rows)


def _remap(coord, old_path: Path):
    if isinstance(coord, LoopCoord):
        return LoopCoord(old_path, coord.var)
    return EdgeCoord(old_path, coord.child)


def distribution_matrix(program: Program, path: Path, split: int) -> tuple[IntMatrix, Program]:
    """The non-square §4.2 matrix for a distribution, plus the new
    program.

    Rows correspond to the new layout's coordinates.  Both copies' loop
    coordinates replicate the old loop coordinate; an edge from the
    parent to a copy is the *sum* of the old loop's edges to the
    children in that copy's group (exactly one of which is 1 for any
    statement inside the group).
    """
    old_layout = Layout(program)
    new_program = distribute(program, path, split)
    new_layout = Layout(new_program)
    loop = _loop_at(program, path)
    nchildren = len(loop.body)
    parent, idx = path[:-1], path[-1]
    copy_paths = (parent + (idx,), parent + (idx + 1,))
    group_range = (range(0, split), range(split, nchildren))

    def coord_map(nc):
        p = nc.path
        for copy_i, cpath in enumerate(copy_paths):
            base = split * copy_i
            if p == cpath:
                if isinstance(nc, LoopCoord):
                    return LoopCoord(path, loop.var)
                return EdgeCoord(path, base + nc.child)
            if p[: len(cpath)] == cpath:
                rest = p[len(cpath):]
                return _remap(nc, path + (base + rest[0],) + rest[1:])
        if isinstance(nc, EdgeCoord) and p == parent:
            if nc.child < idx:
                return nc
            if nc.child in (idx, idx + 1):
                group = group_range[nc.child - idx]
                return [EdgeCoord(path, j) for j in group]
            return EdgeCoord(parent, nc.child - 1)
        if len(p) > len(parent) and p[: len(parent)] == parent and p[len(parent)] > idx + 1:
            return _remap(nc, parent + (p[len(parent)] - 1,) + p[len(parent) + 1 :])
        return nc

    return _coord_matrix(old_layout, new_layout, coord_map), new_program


def distribution_legal(deps: DependenceMatrix, path: Path, split: int) -> bool:
    """Classic distribution legality on the instance-vector dependence
    matrix: every dependence from a statement of the second group to a
    statement of the first group must be carried by a loop *outside*
    the distributed loop (its projection onto the loops enclosing the
    distributed loop must be definitely lexicographically positive)."""
    layout = deps.layout
    loop_node = layout.node_at(path)
    if not isinstance(loop_node, Loop):
        raise TransformError(f"node at {path} is not a loop")

    def group(label: str) -> int | None:
        spath = layout.statement_path(label)
        if spath[: len(path)] != path or len(spath) <= len(path):
            return None
        return 0 if spath[len(path)] < split else 1

    outer_positions = [
        layout.index(c)
        for c in layout.loop_coords()
        if len(c.path) < len(path) and path[: len(c.path)] == c.path
    ]

    for d in deps:
        gs, gd = group(d.src), group(d.dst)
        if gs is None or gd is None:
            continue
        if gs == 1 and gd == 0:
            outer = d.project(outer_positions)
            if not surely_carried(outer):
                return False
    return True
