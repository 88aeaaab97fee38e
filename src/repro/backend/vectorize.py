"""DOALL-driven vectorization planning for the source backend.

The lowering backend (:mod:`repro.backend.lower`) asks this module two
questions:

1. Which loops are DOALL?  :func:`repro.analysis.parallel.doall_loops`
   answers with loop paths: read off M·D (§7) for a generated program,
   which carries the schedule it came from, and from the program's own
   dependence analysis otherwise — "nothing is DOALL" where that
   analysis fails, so the backend emits plain scalar loops and
   vectorization is correct by construction.

2. Can *this* innermost DOALL loop be rewritten as one NumPy slice
   assignment?  :func:`plan_vector_loop` performs the purely syntactic
   legality checks (single statement, affine subscripts, at most one
   dimension per array reference varying with the loop — any number
   with ``flat=True`` — no scalar variables, only elementwise
   intrinsics).  The semantic half — that a slice assignment, which
   reads *all* of its inputs before writing, is observationally equal
   to the sequential loop — is exactly the DOALL
   property: by Theorem 2's characterization, no iteration of the loop
   reads or overwrites a cell another iteration writes, so read-all-
   then-write-all commutes with the original iteration order.  See
   docs/BACKENDS.md for the full argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ir.ast import ArrayDecl, Loop, Statement
from repro.ir.expr import ArrayRef, BinOp, Call, Expr, UnaryOp, VarRef, as_affine
from repro.obs import event
from repro.util.errors import IRError

__all__ = ["VecPlan", "plan_vector_loop", "VEC_FUNCTIONS"]


def _vmin(*args):
    out = args[0]
    for a in args[1:]:
        out = np.minimum(out, a)
    return out


def _vmax(*args):
    out = args[0]
    for a in args[1:]:
        out = np.maximum(out, a)
    return out


def _f(*args):
    return sum((i + 1) * 0.61803398875 * a for i, a in enumerate(args)) + 1.0


def _g(*args):
    return sum((i + 2) * 0.41421356237 * a for i, a in enumerate(args)) + 2.0


#: Elementwise equivalents of :data:`repro.ir.expr.BUILTIN_FUNCTIONS`.
#: ``f``/``g`` are pure affine combinations of their arguments, so the
#: scalar definitions vectorize verbatim; they are restated here (rather
#: than reused) only to avoid the ``float()`` wrapper, which would
#: collapse an array argument.  A statement calling a function *not* in
#: this table is never vectorized.
VEC_FUNCTIONS = {
    "sqrt": np.sqrt,
    "abs": np.abs,
    "min": _vmin,
    "max": _vmax,
    "mod": np.mod,
    "f": _f,
    "g": _g,
}


@dataclass(frozen=True)
class VecPlan:
    """A vectorizable innermost loop: rewrite as one slice assignment.

    ``needs_iota`` records whether the loop variable appears in a value
    position of the RHS (not just inside subscripts), in which case the
    emitted code materializes ``arange(lo, hi+1)`` for it.

    ``flat`` records that some reference varies with the loop variable
    in *several* dimensions (only ever under ``plan_vector_loop(...,
    flat=True)``); such references render as flat strided views instead
    of per-dimension slices.
    """

    var: str
    needs_iota: bool
    flat: bool = False


def plan_vector_loop(
    loop: Loop,
    scope: frozenset[str] | set[str],
    arrays: dict[str, ArrayDecl],
    *,
    flat: bool = False,
) -> VecPlan | None:
    """Decide whether ``loop`` (already known to be DOALL) can be emitted
    as a NumPy slice assignment.  ``scope`` is the set of integer names
    bound outside the loop (params + outer loop variables).

    Returns ``None`` — meaning "emit the scalar loop" — unless every
    syntactic condition holds:

    * unit step, body = exactly one :class:`Statement`, array LHS;
    * every subscript of every array reference is affine over
      ``scope ∪ {loop.var}``;
    * each array reference varies with the loop variable in at most one
      dimension (so it maps to a single strided slice), and the LHS in
      exactly one (so each iteration writes a distinct cell);
    * value-position variables are all in scope (no scalar reads — the
      dependence analysis that produced the DOALL verdict does not track
      scalars);
    * every intrinsic call has an elementwise equivalent in
      :data:`VEC_FUNCTIONS`.

    ``flat=True`` (the ``source-par`` backend) relaxes the third rule:
    a reference may vary in any number of dimensions — its cells are an
    arithmetic progression of indices into the flattened C-ordered
    array, which one 1-D strided view selects — and the LHS need only
    vary in at least one (distinct iterations then write distinct
    cells, by the DOALL verdict plus the bijectivity of flattening).
    This is what maps the diagonal references skewing produces, e.g.
    ``A(I-J, J)`` inside a hyperplane front.
    """
    v = loop.var

    def declined(reason: str, **attrs) -> None:
        event("vectorize", "reject", reason, loop=v, **attrs)

    if loop.step != 1:
        declined(f"non-unit step {loop.step}; slice assignment needs stride 1")
        return None
    if len(loop.body) != 1 or not isinstance(loop.body[0], Statement):
        declined("body is not a single statement")
        return None
    st = loop.body[0]
    if not isinstance(st.lhs, ArrayRef):
        declined("scalar LHS; dependence analysis does not track scalars",
                 access=str(st.lhs))
        return None
    allowed = frozenset(scope) | {v}

    def varying_dims(ref: ArrayRef, *, is_lhs: bool) -> int | str:
        """How many dimensions of ``ref`` vary with ``v``, or why the
        reference blocks the rewrite."""
        decl = arrays.get(ref.array)
        if decl is None or len(ref.subscripts) != decl.rank:
            return "undeclared array or rank mismatch"
        vdims = 0
        for sub in ref.subscripts:
            try:
                lin = as_affine(sub)
            except IRError:
                return f"subscript {sub} is not affine"
            if not (lin.variables() <= allowed):
                return f"subscript {sub} uses variables bound inside the loop"
            if lin[v] != 0:
                vdims += 1
        if is_lhs and (vdims == 0 or (vdims > 1 and not flat)):
            return (
                f"LHS varies with {v} in {vdims} dimensions; "
                "each iteration must write one distinct cell"
            )
        if vdims > 1 and not flat:
            return (
                f"reference varies with {v} in {vdims} dimensions; "
                "no single strided slice maps it"
            )
        return vdims

    widest = 0
    for i, ref in enumerate((st.lhs, *st.rhs.array_refs())):
        vdims = varying_dims(ref, is_lhs=i == 0)
        if isinstance(vdims, str):
            declined(vdims, access=str(ref))
            return None
        widest = max(widest, vdims)
    vals = value_vars(st.rhs)
    if not (vals <= allowed):
        declined(
            f"scalar read(s) {', '.join(sorted(vals - allowed))} in value position",
        )
        return None
    for fn in _calls(st.rhs):
        if fn not in VEC_FUNCTIONS:
            declined(f"intrinsic {fn}() has no elementwise equivalent", call=fn)
            return None
    if widest > 1:
        event("vectorize", "accept",
              "innermost DOALL loop rewritten as one NumPy assignment "
              "through flat strided views",
              loop=v, target=str(st.lhs), mode="flat")
    else:
        event("vectorize", "accept",
              "innermost DOALL loop rewritten as one NumPy slice assignment",
              loop=v, target=str(st.lhs))
    return VecPlan(v, needs_iota=(v in vals), flat=widest > 1)


def value_vars(e: Expr) -> frozenset[str]:
    """Variables appearing in *value* position — i.e. contributing to the
    computed float, not merely selecting an array cell.  Subscripts are
    excluded; intrinsic arguments are values."""
    if isinstance(e, VarRef):
        return frozenset({e.name})
    if isinstance(e, ArrayRef):
        return frozenset()
    if isinstance(e, UnaryOp):
        return value_vars(e.operand)
    if isinstance(e, BinOp):
        return value_vars(e.left) | value_vars(e.right)
    if isinstance(e, Call):
        out: frozenset[str] = frozenset()
        for a in e.args:
            out |= value_vars(a)
        return out
    return frozenset()


def _calls(e: Expr) -> set[str]:
    out: set[str] = set()

    def walk(x: Expr):
        if isinstance(x, Call):
            out.add(x.func)
            for a in x.args:
                walk(a)
        elif isinstance(x, BinOp):
            walk(x.left)
            walk(x.right)
        elif isinstance(x, UnaryOp):
            walk(x.operand)
        elif isinstance(x, ArrayRef):
            for s in x.subscripts:
                walk(s)

    walk(e)
    return out
