"""Strip-mining (tiling) and offset loop fusion.

Both transformations leave the paper's *linear* fragment and are
therefore modelled, like §4.2 distribution/jamming, as structural
program rewrites with non-square bookkeeping matrices rather than as
square layout transformations:

* **tile** — strip-mines one loop into a ``(tile, point)`` pair::

      do I = lo, hi                do IT = 0, floord(hi - lo, B)
        body            ==>          do I = lo + B*IT, min(hi, lo + B*IT + B - 1)
                                       body

  The rewrite is *exact* affine arithmetic — no new loop steps, no
  parameters — so the expanded iteration space flows unchanged through
  dependence analysis (:func:`repro.dependence.analyze.statement_domain`
  lowers the divided/min bounds to conjunctions of linear constraints),
  Theorem-2 legality, and §5 code generation.  Strip-mining itself is
  always legal: ``I -> (floor((I - lo)/B), I)`` is an order-preserving
  bijection of the iteration space, so every dependence keeps its
  direction.  The *interchange* that turns a strip-mined nest into a
  blocked one is an ordinary square transformation of the new layout
  and goes through the standard projection test.

  The tile coordinate ``IT = floor((I - lo)/B)`` is a floor division —
  outside the linear-transformation fragment — which is exactly why
  tiling is a context rewrite and why :func:`tiling_matrix` is §4-style
  *bookkeeping* (which old coordinate each new coordinate derives from,
  the same role the §4.2 non-square matrices play for distribution),
  not an exact linear map.

* **fuse** — the inverse of distribution, generalized to headers that
  match up to a constant offset δ (per-statement §4.3 alignment folded
  into the rewrite)::

      do I = lo, hi        |  do J = lo + d, hi + d
        A-body             |    B-body(J)
                  ==>  do I = lo, hi
                         A-body
                         B-body(I + d)

  Fusion is legal iff *distributing the fused loop back* is legal
  (:func:`repro.transform.distribution.distribution_legal` on the fused
  program's dependences).  At δ = 0 with one variable, fusion is §4.2
  jamming (:func:`jamming_matrix` keeps the paper's matrix for it).
"""

from __future__ import annotations

from dataclasses import replace

from repro.dependence.analyze import analyze_dependences
from repro.dependence.depvector import DependenceMatrix, DepVector
from repro.dependence.entry import NEG_INF, POS_INF, DepEntry
from repro.instance.layout import EdgeCoord, Layout, LoopCoord, Path
from repro.ir.ast import BoundSet, Loop, Node, Program
from repro.ir.expr import BinOp, Expr, IntLit, VarRef
from repro.linalg.intmat import IntMatrix
from repro.obs import counter, event
from repro.polyhedra.affine import LinExpr, var
from repro.polyhedra.bounds import Bound
from repro.transform.distribution import (
    _coord_matrix, _loop_at, _remap, _replace_at, distribution_legal,
)
from repro.transform.matrices import _children_at, _replace_children
from repro.util.errors import IRError, TransformError

__all__ = [
    "tile", "strip_mine", "fuse", "fuse_site_offset", "fuse_sites",
    "fuse_legal", "jamming_matrix", "tiling_matrix", "tiled_deps", "loop_paths",
    "loop_path_by_var", "tile_var_for",
]

#: Tile sizes the tuner enumerates (power-of-two ladder spanning the
#: L1-to-L2 range for double-precision panels; see docs/TILING.md).
TILE_LADDER = (16, 32, 64, 128)


def loop_paths(program: Program) -> list[Path]:
    """Paths of every loop node, preorder."""
    out: list[Path] = []

    def walk(children, path: Path) -> None:
        for j, child in enumerate(children):
            if isinstance(child, Loop):
                out.append(path + (j,))
                walk(child.body, path + (j,))

    walk(program.body, ())
    return out


def loop_path_by_var(program: Program, name: str | Path) -> Path:
    """The path of the loop a spec argument names: a path, or a loop
    variable; raises when the path names no loop or the name is missing
    or names several (non-nested) loops."""
    if isinstance(name, tuple):
        _loop_at(program, name)
        return name
    matches = [p for p in loop_paths(program) if _loop_at(program, p).var == name]
    if not matches:
        raise TransformError(f"no loop named {name!r}")
    if len(matches) > 1:
        raise TransformError(
            f"loop name {name!r} is ambiguous ({len(matches)} loops); "
            "name the loop by its path (e.g. 0.1)"
        )
    return matches[0]


def tile_var_for(program: Program, name: str) -> str:
    """A fresh tile-loop variable derived from ``name`` (``IT``,
    ``IT2``, ...) that collides with no loop variable, parameter or
    array name."""
    used = {l.var for l in program.all_loops()}
    used |= set(program.params)
    used |= {a.name for a in program.arrays}
    base = f"{name}T"
    if base not in used:
        return base
    k = 2
    while f"{base}{k}" in used:
        k += 1
    return f"{base}{k}"


def strip_mine(program: Program, path: Path, size: int) -> Program:
    """Strip-mine the loop at ``path`` by ``size``: replace it with a
    ``(tile, point)`` loop pair covering the identical iteration set in
    the identical order.  Requires a unit-step loop with plain affine
    bounds (an already strip-mined loop's ``min``/``floord`` bounds
    cannot be strip-mined again)."""
    if size < 2:
        raise TransformError(f"tile size must be >= 2, got {size}")
    loop = _loop_at(program, path)
    if loop.step != 1:
        raise TransformError(
            f"tiling requires a unit-step loop (loop {loop.var} has step {loop.step})"
        )
    try:
        lo = loop.lower.single_affine()
        hi = loop.upper.single_affine()
    except IRError as exc:
        raise TransformError(
            f"tiling requires plain affine bounds on loop {loop.var}: {exc}"
        ) from exc

    tvar = tile_var_for(program, loop.var)
    start = lo + var(tvar) * size  # first iteration of tile tvar
    point = Loop(
        loop.var,
        BoundSet.affine(start, True),
        BoundSet(
            (Bound(hi, 1, False), Bound(start + LinExpr({}, size - 1), 1, False)),
            False,
        ),
        loop.body,
        1,
    )
    tile_loop = Loop(
        tvar,
        BoundSet.affine(0, True),
        BoundSet((Bound(hi - lo, size, False),), False),
        (point,),
        1,
    )
    out = _replace_at(program, path, [tile_loop])
    counter("transform.tiles")
    return out


#: ``tile`` is strip-mining; the interchange that moves the tile loop
#: outward is a separate (square, Theorem-2-checked) step.
tile = strip_mine


def tiling_matrix(program: Program, path: Path, size: int) -> tuple[IntMatrix, Program]:
    """The §4-style non-square bookkeeping matrix for a strip-mine, plus
    the new program.

    Rows are the new layout's coordinates; both the tile and the point
    loop coordinate derive from the old loop coordinate (the tile row is
    the floor-divided image — pseudo-linear, see the module docstring),
    mirroring how §4.2 distribution matrices replicate the distributed
    loop's coordinate into each copy.
    """
    new_program = strip_mine(program, path, size)
    old_layout, new_layout = Layout(program), Layout(new_program)
    coord_map = _tiling_coord_map(program, new_program, path)
    return _coord_matrix(old_layout, new_layout, coord_map), new_program


def _tiling_coord_map(program: Program, new_program: Program, path: Path):
    """``new coordinate -> old coordinate`` for the strip-mine at ``path``."""
    loop = _loop_at(program, path)
    tvar = _loop_at(new_program, path).var
    point_path = path + (0,)

    def coord_map(nc):
        p = nc.path
        if p == path:
            # the tile loop itself: its only child is the point loop, so
            # only its LoopCoord exists at this path
            assert isinstance(nc, LoopCoord) and nc.var == tvar
            return LoopCoord(path, loop.var)
        if p == point_path:
            if isinstance(nc, LoopCoord):
                return LoopCoord(path, loop.var)
            return EdgeCoord(path, nc.child)
        if p[: len(point_path)] == point_path:
            return _remap(nc, path + p[len(point_path):])
        return nc

    return coord_map


def tiled_deps(
    program: Program, path: Path, size: int, deps: DependenceMatrix,
    tiled: Program,
) -> DependenceMatrix:
    """The dependence matrix of ``tiled`` (``program`` strip-mined at
    ``path`` by ``size``), derived from ``program``'s ``deps`` without
    running §3 on it.

    Every coordinate but the tile loop's keeps its old entry
    (:func:`tiling_matrix`'s bookkeeping).  For two instances inside the
    loop, the tile coordinate is ``floor((i - lo)/size)``, so when
    ``Δ(i - lo)`` lies in ``[l, h]`` its entry is the floor-division
    interval ``[floor(l/size), ceil(h/size)]`` (infinite ends stay
    infinite) — sound for every size.  ``Δlo`` comes from the entries
    of the enclosing loops ``lo`` mentions.  When only one instance is
    inside, the other's tile value is a padded enclosing-loop value (or
    0 without one), and the entry is a half-line or unknown.
    """
    old_layout = deps.layout
    new_layout = Layout(tiled)
    coord_map = _tiling_coord_map(program, tiled, path)
    cols = [old_layout.index(coord_map(c)) for c in new_layout.coords]
    loop = _loop_at(program, path)
    i_col = old_layout.index(LoopCoord(path, loop.var))
    t_row = new_layout.index(LoopCoord(path, _loop_at(tiled, path).var))
    lo = loop.lower.single_affine()
    outer = {
        c.var: old_layout.index(c)
        for c in old_layout.loop_coords() if c.path == path[: len(c.path)]
    }
    lo_cols = [(outer[v], c) for v, c in lo.terms() if v in outer]
    inside = {s.label for s in loop.statements()}

    def tile_entry(d: DepVector) -> DepEntry:
        src_in, dst_in = d.src in inside, d.dst in inside
        if src_in and dst_in:
            span_ = d.entries[i_col]
            for col, c in lo_cols:
                span_ = span_ + d.entries[col].scale(-c)
            return DepEntry(
                span_.lo if span_.lo == NEG_INF else span_.lo // size,
                span_.hi if span_.hi == POS_INF else -(-span_.hi // size),
            )
        out = d.dst if src_in else d.src
        if old_layout.pad_source(LoopCoord(path, loop.var), out) is not None:
            return DepEntry.star()
        # the outside instance pads the tile coordinate with 0
        return DepEntry(NEG_INF, 0) if src_in else DepEntry(0, POS_INF)

    derived = []
    for d in deps:
        entries = [d.entries[j] for j in cols]
        if d.src in inside or d.dst in inside:
            entries[t_row] = tile_entry(d)
        derived.append(replace(d, entries=tuple(entries)))
    return DependenceMatrix(new_layout, derived)


# -- fusion ------------------------------------------------------------------


def fuse_site_offset(a: Node, b: Node | None) -> int | None:
    """The constant alignment offset δ such that loop ``b`` iterates
    ``a``'s range shifted by δ — or ``None`` when the pair is not
    fusable (not both unit-step loops with plain affine bounds whose
    lower *and* upper bounds differ by the same constant)."""
    if not (isinstance(a, Loop) and isinstance(b, Loop)):
        return None
    if a.step != 1 or b.step != 1:
        return None
    try:
        alo, ahi = a.lower.single_affine(), a.upper.single_affine()
        blo, bhi = b.lower.single_affine(), b.upper.single_affine()
    except IRError:
        return None
    dlo = blo - alo
    dhi = bhi - ahi
    if dlo.variables() or dhi.variables():
        return None
    delta = dlo.eval({})
    if dhi.eval({}) != delta:
        return None
    return delta


def _sibling_pair(program: Program, path: Path) -> tuple[Node, Node | None]:
    """The loop at ``path`` and its next sibling (None when it is last)."""
    siblings, j = _children_at(program, path[:-1]), path[-1]
    return siblings[j], (siblings[j + 1] if j + 1 < len(siblings) else None)


def fuse_sites(program: Program) -> list[Path]:
    """Paths, in preorder, of the loops that can fuse with their next
    sibling (:func:`fuse_site_offset` is not ``None``)."""
    return [
        p for p in loop_paths(program)
        if fuse_site_offset(*_sibling_pair(program, p)) is not None
    ]


def _shift_expr(name: str, delta: int) -> Expr:
    if delta == 0:
        return VarRef(name)
    op = "+" if delta > 0 else "-"
    return BinOp(op, VarRef(name), IntLit(abs(delta)))


def fuse(program: Program, path: Path) -> Program:
    """Fuse the loop at ``path`` with its immediately following sibling.

    The headers must match up to a constant offset δ: the second loop's
    body is rewritten with its variable substituted by ``first.var + δ``
    (per-statement alignment), then appended to the first loop's body.
    At δ = 0 with one variable this is §4.2 jamming, the inverse of
    distribution.  Purely structural — legality is :func:`fuse_legal`.
    """
    siblings, j = _children_at(program, path[:-1]), path[-1]
    if j + 1 >= len(siblings):
        raise TransformError("no following sibling loop to fuse with")
    a, b = siblings[j], siblings[j + 1]
    delta = fuse_site_offset(a, b)
    if delta is None:
        raise TransformError(
            "fuse requires adjacent unit-step loops whose bounds differ "
            "by one constant offset"
        )
    assert isinstance(a, Loop) and isinstance(b, Loop)
    if b.var != a.var:
        for inner in _inner_loops(b.body):
            if inner.var == a.var:
                raise TransformError(
                    f"cannot fuse: inner loop variable {a.var!r} of the second "
                    "loop would shadow the fused loop variable"
                )
    if b.var == a.var and delta == 0:
        moved = b.body
    else:
        mapping = {b.var: _shift_expr(a.var, delta)}
        moved = tuple(child.substituted(mapping) for child in b.body)
    out = _replace_children(
        program, path[:-1], siblings[:j] + (a.with_body(a.body + moved),) + siblings[j + 2:]
    )
    counter("transform.fusions")
    return out


def _inner_loops(children) -> list[Loop]:
    out: list[Loop] = []
    for c in children:
        if isinstance(c, Loop):
            out.append(c)
            out.extend(_inner_loops(c.body))
    return out


def fuse_legal(
    program: Program,
    path: Path,
    *,
    fused: Program | None = None,
    fused_deps: DependenceMatrix | None = None,
) -> bool:
    """Theorem-2 legality of fusing at ``path``, by the inverse-of-
    distribution argument: the fusion is legal iff distributing the
    fused loop back apart is legal on the *fused* program's dependence
    matrix.  Emits a ``legality`` accept/reject event either way.
    """
    a = _loop_at(program, path)
    split = len(a.body)
    if fused is None:
        fused = fuse(program, path)
    if fused_deps is None:
        fused_deps = analyze_dependences(fused)
    ok = distribution_legal(fused_deps, path, split)
    site = ".".join(map(str, path)) or "root"
    if ok:
        event(
            "legality", "accept",
            "fusion admitted: distributing the fused loop back is legal",
            site=site, loop=a.var, split=split,
        )
    else:
        counter("legality.fusion_rejections")
        event(
            "legality", "reject",
            "fusion would reverse a dependence between the fused bodies: "
            "the inverse distribution's projection onto the outer loops is "
            "not lexicographically positive (Theorem 2)",
            site=site, loop=a.var, split=split,
        )
    return ok


def jamming_matrix(program: Program, path: Path) -> tuple[IntMatrix, Program]:
    """The non-square §4.2 matrix for jamming the loop at ``path`` with
    its following sibling, plus the new program.

    Jamming is :func:`fuse` of two loops with one header (offset 0, one
    variable).  The fused loop coordinate selects the *second* copy's
    loop coordinate (matching the paper's example); instances from the
    first copy land on a padded entry and rely on augmentation.
    """
    parent, idx = path[:-1], path[-1]
    path_b = parent + (idx + 1,)
    a, b = _loop_at(program, path), _loop_at(program, path_b)
    if a.var != b.var or fuse_site_offset(a, b) != 0:
        raise TransformError("jamming requires two loops with one header")
    old_layout = Layout(program)
    new_program = fuse(program, path)
    new_layout = Layout(new_program)
    n_first = len(a.body)
    b_nchildren = len(b.body)

    def old_edge_to_child(copy_path: Path, child: int, copy_nchildren: int):
        """Old coordinate that is 1 exactly for statements under the
        copy's ``child``: the copy's own edge when it has several
        children, else the parent's edge to the copy itself."""
        if copy_nchildren >= 2:
            return EdgeCoord(copy_path, child)
        return EdgeCoord(parent, copy_path[-1])

    def coord_map(nc):
        p = nc.path
        if p == path:
            if isinstance(nc, LoopCoord):
                return LoopCoord(path_b, nc.var)
            if nc.child < n_first:
                return old_edge_to_child(path, nc.child, n_first)
            return old_edge_to_child(path_b, nc.child - n_first, b_nchildren)
        if p[: len(path)] == path:
            rest = p[len(path):]
            if rest[0] < n_first:
                return nc
            return _remap(nc, path_b + (rest[0] - n_first,) + rest[1:])
        if isinstance(nc, EdgeCoord) and p == parent:
            if nc.child < idx:
                return nc
            if nc.child == idx:
                return [EdgeCoord(parent, idx), EdgeCoord(parent, idx + 1)]
            return EdgeCoord(parent, nc.child + 1)
        if len(p) > len(parent) and p[: len(parent)] == parent and p[len(parent)] > idx:
            return _remap(nc, parent + (p[len(parent)] + 1,) + p[len(parent) + 1 :])
        return nc

    return _coord_matrix(old_layout, new_layout, coord_map), new_program
