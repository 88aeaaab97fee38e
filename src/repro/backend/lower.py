"""Lower loop-nest IR to executable Python/NumPy source.

:func:`lower_program` walks a :class:`~repro.ir.ast.Program` (source or
generated) and emits one Python function per program::

    def _kernel(_arrays, _params, _scalars):
        _s = _scalars
        N = _params['N']
        _a_A = _arrays['A']
        for K in range(1, N + 1):
            _a_A[K - 1, K - 1] = _fn_sqrt(float(_a_A[K - 1, K - 1]))
            ...

The text is ``compile()``d and ``exec``'d once, replacing the reference
interpreter's per-instance AST dispatch with native bytecode; the
function then runs against the same :class:`~repro.interp.ArrayStore`
arrays, so all existing equivalence oracles apply unchanged.

Lowering rules (see docs/BACKENDS.md for the full catalogue):

* loop bounds — ``max``/``min`` over ceil/floor-divided affine terms
  render as integer arithmetic: ``ceild(e, d)`` is ``-((-e) // d)`` and
  ``floord(e, d)`` is ``e // d``, bit-identical to
  :meth:`repro.polyhedra.bounds.Bound.eval`;
* guards — affine :class:`Constraint` conditions render as integer
  comparisons; :class:`ExprCondition` lattice conditions render through
  ``_exact_div`` (exact integer division that raises on a remainder),
  preserving the reference's left-to-right short-circuit order;
* subscripts — affine subscripts over in-scope variables become integer
  index arithmetic (shifted by the declared lower bound); anything else
  falls back to evaluating the float expression and rounding through
  ``_round_index``, which enforces the reference's 1e-9 tolerance;
* values — array reads are wrapped in ``float()`` so arithmetic happens
  on Python floats (IEEE-754 doubles, identical to the reference and
  ~3x faster than NumPy scalar ops);
* innermost DOALL loops whose statement passes
  :func:`repro.backend.vectorize.plan_vector_loop` become a single NumPy
  slice assignment (``vectorize=True`` only).  A generated program's
  DOALL loops come from the schedule it was generated from (M·D, §7),
  joined by statement label and depth; a hand-written one's from
  dependence analysis (:func:`repro.analysis.parallel.doall_loops`);
* with ``parallel=True`` (the ``source-par`` backend) that planner also
  admits references varying with the loop variable in several
  dimensions — the diagonals skewing produces inside a hyperplane
  front — which render as flat strided views (``_fview``/``_fread``)
  of the C-ordered array.  Everything else is the ``source-vec``
  emission; no threads are involved (docs/PARALLEL.md).

The scalar path is *exact*: it produces bit-identical floats to the
reference executor.  The backend does not re-validate subscript ranges
(NumPy raises ``IndexError`` past the end but wraps negative indices),
which is the documented speed/checking trade-off.
"""

from __future__ import annotations

import keyword
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.backend.vectorize import VEC_FUNCTIONS, VecPlan, plan_vector_loop
from repro.ir.ast import (
    ArrayDecl, BoundSet, ExprCondition, Guard, HullBound, Loop, Node, Program,
    Statement,
)
from repro.ir.expr import (
    BUILTIN_FUNCTIONS, ArrayRef, BinOp, Call, Expr, FloatLit, IntLit, UnaryOp,
    VarRef, as_affine,
)
from repro.obs import counter, span
from repro.polyhedra.affine import LinExpr
from repro.polyhedra.bounds import Bound
from repro.util.errors import BackendError, InterpError, IRError

__all__ = ["LoweredProgram", "lower_program"]


# -- runtime helpers available to emitted code --------------------------------

def _round_index(v) -> int:
    """Round a float subscript to an int, with the reference tolerance."""
    iv = int(round(v))
    if abs(v - iv) > 1e-9:
        raise InterpError(f"non-integer subscript value {v}")
    return iv


def _exact_div(a: int, b: int) -> int:
    """Exact integer division for lattice guard conditions."""
    q, r = divmod(a, b)
    if r:
        raise IRError(f"inexact division {a}/{b} in condition")
    return q


def _vslice(lo: int, hi: int, c: int, off: int) -> slice:
    """The slice selecting ``c*v + off`` for ``v`` in ``lo..hi``.

    For a negative stride the exclusive stop may land at ``-1``, which
    NumPy would read as "one before the end" — map it to ``None``.
    """
    if c > 0:
        return slice(c * lo + off, c * hi + off + 1, c)
    stop = c * hi + off - 1
    return slice(c * lo + off, stop if stop >= 0 else None, c)


def _flatbase(a, cs, offs):
    """(flat view, base element index, combined element stride) for a
    reference whose dimension ``k`` is ``cs[k]*v + offs[k]``."""
    if not a.flags.c_contiguous:
        raise InterpError("flat strided view requires a C-contiguous array")
    isz = a.itemsize
    base = 0
    step = 0
    for c, o, s in zip(cs, offs, a.strides):
        s //= isz
        base += o * s
        step += c * s
    return a.reshape(-1), base, step


def _fslice(flat, base, step, lo, hi):
    start = base + step * lo
    stop = base + step * hi
    if step > 0:
        return flat[start : stop + 1 : step]
    stop -= 1
    return flat[start : (stop if stop >= 0 else None) : step]


def _fview(a, lo, hi, cs, offs):
    """The writable 1-D view selecting the cells of a multi-dimension
    reference for ``v`` in ``lo..hi`` — an arithmetic progression of
    flat indices with stride ``sum(cs[k]*strides[k])``.

    A zero combined stride with ``hi > lo`` would mean every iteration
    writes the same cell — an output dependence the DOALL verdict rules
    out for in-bounds subscripts — so it is reported, not silently
    mis-executed.
    """
    flat, base, step = _flatbase(a, cs, offs)
    if step == 0:
        if lo == hi:
            return flat[base : base + 1]
        raise InterpError(
            "flat view writes one cell from every iteration "
            "(zero flat stride); subscripts outside declared bounds?"
        )
    return _fslice(flat, base, step, lo, hi)


def _fread(a, lo, hi, cs, offs):
    """Read-side counterpart of :func:`_fview`: a zero combined stride
    is legitimate for reads (the reference is loop-invariant) and
    collapses to a broadcast scalar."""
    flat, base, step = _flatbase(a, cs, offs)
    if step == 0:
        return float(flat[base])
    return _fslice(flat, base, step, lo, hi)


_EXEC_GLOBALS: dict[str, object] = {
    "_np": np,
    "_round_index": _round_index,
    "_exact_div": _exact_div,
    "_vslice": _vslice,
    "_fview": _fview,
    "_fread": _fread,
}
for _name, _fn in BUILTIN_FUNCTIONS.items():
    _EXEC_GLOBALS[f"_fn_{_name}"] = _fn
for _name, _fn in VEC_FUNCTIONS.items():
    _EXEC_GLOBALS[f"_vf_{_name}"] = _fn


# -- lowering context ---------------------------------------------------------

@dataclass
class _Ctx:
    """Names in scope and the vectorization state while emitting."""

    scope: frozenset[str]
    arrays: dict[str, ArrayDecl]
    plans: dict[int, VecPlan]
    vec: VecPlan | None = None

    def bind(self, var: str) -> "_Ctx":
        return _Ctx(self.scope | {var}, self.arrays, self.plans, self.vec)

    def vectorizing(self, plan: VecPlan) -> "_Ctx":
        return _Ctx(self.scope, self.arrays, self.plans, plan)


class _Emitter:
    def __init__(self):
        self.lines: list[str] = []
        self.depth = 1

    def line(self, s: str) -> None:
        self.lines.append("    " * self.depth + s)

    @contextmanager
    def indent(self):
        self.depth += 1
        try:
            yield
        finally:
            self.depth -= 1


# -- expression rendering -----------------------------------------------------

def _render_lin(lin: LinExpr) -> str:
    """An affine form as an integer Python expression."""
    parts: list[str] = []
    for name, c in lin.terms():
        if c == 1:
            parts.append(name)
        elif c == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{c}*{name}")
    if lin.constant != 0 or not parts:
        parts.append(str(lin.constant))
    if len(parts) > 1:
        return "(" + " + ".join(parts) + ")"
    p = parts[0]
    return f"({p})" if p.startswith("-") else p


def _render_bound_term(t: Bound) -> str:
    e = _render_lin(t.expr)
    if t.div == 1:
        return e
    # ceil for lower bounds, floor for upper — Bound.eval verbatim.
    return f"(-((-{e}) // {t.div}))" if t.is_lower else f"({e} // {t.div})"


def _render_boundset(bs: BoundSet) -> str:
    terms = [_render_bound_term(t) for t in bs.terms]
    if len(terms) == 1:
        return terms[0]
    return ("max(" if bs.is_lower else "min(") + ", ".join(terms) + ")"


def _render_bound(b: BoundSet | HullBound) -> str:
    if isinstance(b, HullBound):
        groups = [_render_boundset(g) for g in b.groups]
        if len(groups) == 1:
            return groups[0]
        # hull of a union: loosest group wins.
        return ("min(" if b.is_lower else "max(") + ", ".join(groups) + ")"
    return _render_boundset(b)


def _render_int_tree(e: Expr, scope: frozenset[str]) -> str:
    """An array-free expression as exact integer arithmetic (guard
    conditions) — mirrors ``repro.ir.ast._eval_int_expr``."""
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, VarRef):
        if e.name not in scope:
            raise BackendError(f"unbound variable {e.name!r} in condition")
        return e.name
    if isinstance(e, UnaryOp):
        return f"(-{_render_int_tree(e.operand, scope)})"
    if isinstance(e, BinOp):
        l = _render_int_tree(e.left, scope)
        r = _render_int_tree(e.right, scope)
        if e.op in ("+", "-", "*", "%"):
            return f"({l} {e.op} {r})"
        if e.op == "/":
            return f"_exact_div({l}, {r})"
    raise BackendError(f"cannot lower {e} as an integer condition")


def _render_index(sub: Expr, lo: LinExpr, ctx: _Ctx) -> str:
    """One subscript dimension, shifted to a 0-based offset."""
    try:
        lin = as_affine(sub)
    except IRError:
        lin = None
    if lin is not None and lin.variables() <= ctx.scope:
        return _render_lin(lin - lo)
    # Non-affine (or scalar-dependent) subscript: evaluate as a float and
    # round with the reference tolerance.
    return f"(_round_index({_render_value(sub, ctx)}) - {_render_lin(lo)})"


def _render_array_ref(ref: ArrayRef, ctx: _Ctx, *, target: bool = False) -> tuple[str, bool]:
    """Render a reference; returns ``(code, is_vector)``.

    ``target`` marks the LHS of an assignment; it only matters for flat
    plans, where the write side renders as a ``_fview`` slice target and
    the read side as ``_fread`` (whose zero-stride case collapses to a
    broadcast scalar, legal for reads only).
    """
    decl = ctx.arrays.get(ref.array)
    if decl is None:
        raise BackendError(f"undeclared array {ref.array!r}")
    if len(ref.subscripts) != decl.rank:
        raise BackendError(
            f"{ref.array} has rank {decl.rank}, got {len(ref.subscripts)} subscripts"
        )
    vec = ctx.vec
    if vec is not None and vec.flat:
        # The plan guaranteed affine subscripts.  A reference varying
        # with the loop variable in several dimensions has no
        # per-dimension slice form, but its cells are an arithmetic
        # progression of *flat* indices.
        lins = [as_affine(sub) for sub in ref.subscripts]
        if sum(1 for lin in lins if lin[vec.var] != 0) > 1:
            cs: list[str] = []
            offs: list[str] = []
            for lin, (lo, _hi) in zip(lins, decl.dims):
                c = lin[vec.var]
                cs.append(str(c))
                offs.append(_render_lin(lin + LinExpr({vec.var: -c}) - lo))
            fn = "_fview" if target else "_fread"
            code = (
                f"{fn}(_a_{ref.array}, _l_{vec.var}, _h_{vec.var}, "
                f"({', '.join(cs)}), ({', '.join(offs)}))"
            )
            return (code + "[:]" if target else code), True
    dims: list[str] = []
    is_vector = False
    for sub, (lo, _hi) in zip(ref.subscripts, decl.dims):
        if vec is not None:
            lin = as_affine(sub)  # plan_vector_loop guaranteed affine
            c = lin[vec.var]
            if c != 0:
                rest = lin + LinExpr({vec.var: -c}) - lo
                dims.append(f"_vslice(_l_{vec.var}, _h_{vec.var}, {c}, {_render_lin(rest)})")
                is_vector = True
                continue
            dims.append(_render_lin(lin - lo))
        else:
            dims.append(_render_index(sub, lo, ctx))
    return f"_a_{ref.array}[{', '.join(dims)}]", is_vector


def _render_value(e: Expr, ctx: _Ctx) -> str:
    if isinstance(e, IntLit):
        return repr(float(e.value))
    if isinstance(e, FloatLit):
        return repr(e.value)
    if isinstance(e, VarRef):
        if ctx.vec is not None and e.name == ctx.vec.var:
            return f"_vv_{e.name}"
        if e.name in ctx.scope:
            return e.name
        # Scalar defined by an earlier statement; KeyError at run time maps
        # to the reference's "unbound variable" InterpError.
        return f"_s[{e.name!r}]"
    if isinstance(e, ArrayRef):
        code, is_vector = _render_array_ref(e, ctx)
        # float() keeps scalar arithmetic on Python floats (exact vs the
        # reference, and much faster than np.float64 scalars).
        return code if is_vector else f"float({code})"
    if isinstance(e, UnaryOp):
        return f"(-{_render_value(e.operand, ctx)})"
    if isinstance(e, BinOp):
        return f"({_render_value(e.left, ctx)} {e.op} {_render_value(e.right, ctx)})"
    if isinstance(e, Call):
        prefix = "_vf_" if ctx.vec is not None else "_fn_"
        args = ", ".join(_render_value(a, ctx) for a in e.args)
        return f"{prefix}{e.func}({args})"
    raise BackendError(f"cannot lower expression {e!r}")


# -- node emission ------------------------------------------------------------

def _emit_statement(st: Statement, ctx: _Ctx, em: _Emitter) -> None:
    rhs = _render_value(st.rhs, ctx)
    if isinstance(st.lhs, ArrayRef):
        lhs, _ = _render_array_ref(st.lhs, ctx)
        em.line(f"{lhs} = {rhs}")
    else:
        em.line(f"_s[{st.lhs.name!r}] = {rhs}")


def _emit_guard(g: Guard, ctx: _Ctx, em: _Emitter, stats: dict) -> None:
    conds: list[str] = []
    for c in g.conditions:
        if isinstance(c, ExprCondition):
            rendered = _render_int_tree(c.expr, ctx.scope)
            conds.append(f"{rendered} {'==' if c.is_equality() else '>='} 0")
        else:
            conds.append(f"{_render_lin(c.expr)} {c.kind} 0")
    if not conds:  # vacuously true
        _emit_block(g.body, ctx, em, stats)
        return
    em.line("if " + " and ".join(conds) + ":")
    with em.indent():
        _emit_block(g.body, ctx, em, stats)


def _emit_loop(loop: Loop, ctx: _Ctx, em: _Emitter, stats: dict) -> None:
    lo = _render_bound(loop.lower)
    hi = _render_bound(loop.upper)
    plan = ctx.plans.get(id(loop))
    if plan is not None:
        stats["vectorized"] += 1
        stats["flat"] += plan.flat
        v = loop.var
        em.line(f"_l_{v} = {lo}")
        em.line(f"_h_{v} = {hi}")
        em.line(f"if _l_{v} <= _h_{v}:")
        with em.indent():
            vctx = ctx.bind(v).vectorizing(plan)
            if plan.needs_iota:
                em.line(f"_vv_{v} = _np.arange(_l_{v}, _h_{v} + 1, dtype=float)")
            st = loop.body[0]
            assert isinstance(st, Statement)
            lhs, is_vector = _render_array_ref(st.lhs, vctx, target=True)
            assert is_vector
            em.line(f"{lhs} = {_render_value(st.rhs, vctx)}")
        return
    if loop.step == 1:
        rng = f"range({lo}, {hi} + 1)"
    elif loop.step > 0:
        rng = f"range({lo}, {hi} + 1, {loop.step})"
    else:
        rng = f"range({lo}, {hi} - 1, {loop.step})"
    em.line(f"for {loop.var} in {rng}:")
    with em.indent():
        _emit_block(loop.body, ctx.bind(loop.var), em, stats)


def _emit_block(nodes: tuple[Node, ...], ctx: _Ctx, em: _Emitter, stats: dict) -> None:
    if not nodes:
        em.line("pass")
        return
    for node in nodes:
        if isinstance(node, Statement):
            _emit_statement(node, ctx, em)
        elif isinstance(node, Loop):
            _emit_loop(node, ctx, em, stats)
        elif isinstance(node, Guard):
            _emit_guard(node, ctx, em, stats)
        else:
            raise BackendError(f"cannot lower node of type {type(node).__name__}")


# -- driver -------------------------------------------------------------------

@dataclass
class LoweredProgram:
    """A program lowered to compiled Python source.

    ``vectorized_loops`` counts loops emitted as slice assignments;
    ``fallback_loops`` counts innermost DOALL loops that had to stay
    scalar (non-affine subscript, multi-statement body, scalar reads...);
    ``flat_loops`` counts the vectorized loops that read or write
    through a flat strided view (``parallel=True`` only — zero means
    the source-par emission is the source-vec one).
    """

    program: Program
    source: str
    vectorize: bool
    vectorized_loops: int
    fallback_loops: int
    parallel: bool
    flat_loops: int
    fn: Callable = field(repr=False)


#: Names the emitted module binds bare (everything else we emit is
#: ``_``-prefixed, and ``_``-prefixed user identifiers are rejected).
_RESERVED = frozenset({"range", "float", "max", "min"})


def _check_identifiers(program: Program) -> None:
    names = {f"parameter {p!r}": p for p in program.params}
    for decl in program.arrays:
        names[f"array {decl.name!r}"] = decl.name
    for loop in program.all_loops():
        names[f"loop variable {loop.var}"] = loop.var
    for what, n in names.items():
        if n.startswith("_") or n in _RESERVED or keyword.iskeyword(n) or not n.isidentifier():
            raise BackendError(f"cannot lower {what}: reserved or invalid as a Python name")


def _collect_plans(
    program: Program, doall: frozenset[tuple[int, ...]], stats: dict, *, flat: bool
) -> dict[int, VecPlan]:
    """Map id(loop) -> plan for every vectorizable innermost DOALL loop
    (``doall`` holds loop paths, as :func:`doall_loops` returns them)."""
    arrays = {d.name: d for d in program.arrays}
    plans: dict[int, VecPlan] = {}

    def walk(nodes: tuple[Node, ...], path: tuple[int, ...], scope: frozenset[str]):
        for j, node in enumerate(nodes):
            here = path + (j,)
            if isinstance(node, Loop):
                has_subloop = any(isinstance(c, (Loop, Guard)) for c in node.body)
                if here in doall and not has_subloop:
                    plan = plan_vector_loop(node, scope, arrays, flat=flat)
                    if plan is not None:
                        plans[id(node)] = plan
                    else:
                        stats["fallback"] += 1
                walk(node.body, here, scope | {node.var})
            elif isinstance(node, Guard):
                walk(node.body, here, scope)

    walk(program.body, (), frozenset(program.params))
    return plans


def lower_program(
    program: Program, *, vectorize: bool = False, parallel: bool = False
) -> LoweredProgram:
    """Lower ``program`` to a compiled Python function.

    With ``vectorize=True``, innermost DOALL loops are emitted as NumPy
    slice assignments when legal.  DOALL comes from
    :func:`~repro.analysis.parallel.doall_loops`: read off M·D for a
    generated program (it carries its schedule), from the library's
    own dependence analysis for anything else.

    With ``parallel=True`` (the ``source-par`` backend) the same loops
    are vectorized and references varying with the loop in several
    dimensions are also admitted, as flat strided views: after a skew,
    the innermost loop of a hyperplane front becomes one NumPy
    assignment.  Where no such reference exists the emission is the
    ``vectorize=True`` one (``flat_loops == 0``).
    """
    with span("backend.lower", program=program.name, vectorize=vectorize,
              parallel=parallel):
        _check_identifiers(program)
        stats = {"vectorized": 0, "fallback": 0, "flat": 0}
        plans: dict[int, VecPlan] = {}
        if vectorize or parallel:
            # `repro.analysis` reaches this module through `analysis.search`
            from repro.analysis.parallel import doall_loops

            doall = doall_loops(program)
            if doall:
                plans = _collect_plans(program, doall, stats, flat=parallel)

        em = _Emitter()
        em.line("_s = _scalars")
        for p in program.params:
            em.line(f"{p} = _params[{p!r}]")
        for decl in program.arrays:
            em.line(f"_a_{decl.name} = _arrays[{decl.name!r}]")
        ctx = _Ctx(frozenset(program.params),
                   {d.name: d for d in program.arrays}, plans)
        _emit_block(program.body, ctx, em, stats)

        header = (
            f"# lowered from {program.name!r} "
            f"(vectorize={vectorize}, parallel={parallel})\n"
        )
        src = header + "def _kernel(_arrays, _params, _scalars):\n" + "\n".join(em.lines) + "\n"
        code = compile(src, f"<repro-backend:{program.name}>", "exec")
        g = dict(_EXEC_GLOBALS)
        exec(code, g)

        counter("backend.lowerings")
        counter("backend.vectorized_loops", stats["vectorized"])
        counter("backend.scalar_fallbacks", stats["fallback"])
        if parallel:
            counter("backend.flat_loops", stats["flat"])
        return LoweredProgram(
            program=program,
            source=src,
            vectorize=vectorize,
            vectorized_loops=stats["vectorized"],
            fallback_loops=stats["fallback"],
            parallel=parallel,
            flat_loops=stats["flat"],
            fn=g["_kernel"],
        )
