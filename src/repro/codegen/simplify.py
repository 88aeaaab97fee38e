"""Cleanup passes over generated code (the paper's §5.5 "standard
optimizations").

* :func:`simplify_program` — prune dominated bound terms, fold constant
  min/max, drop guard conditions implied by the enclosing loops and
  parameter assumptions, and fold constant arithmetic in expressions.
* :func:`peel_iteration` — split a boundary iteration off a loop so
  equality-guarded statements (``if (I == 0)``) become straight-line
  code, reproducing the paper's simplified §5.4 output.
"""

from __future__ import annotations

from repro.ir.ast import (
    BoundSet, Guard, HullBound, Loop, Node, Program, Statement, simplify_hull,
)
from repro.ir.expr import (
    ArrayRef, BinOp, Call, Expr, FloatLit, IntLit, UnaryOp, VarRef,
)
from repro.polyhedra.affine import var
from repro.polyhedra.bounds import Bound
from repro.polyhedra.constraint import Constraint, ge0
from repro.polyhedra.system import Feasibility, System
from repro.util.errors import CodegenError, IRError

__all__ = ["simplify_program", "peel_iteration", "fold_expr"]


# --------------------------------------------------------------------------
# expression folding
# --------------------------------------------------------------------------

def fold_expr(e: Expr) -> Expr:
    """Constant-fold and normalize an expression tree (0+x, 1*x, literal
    arithmetic on ints)."""
    if isinstance(e, (IntLit, FloatLit, VarRef)):
        return e
    if isinstance(e, ArrayRef):
        return ArrayRef(e.array, [fold_expr(s) for s in e.subscripts])
    if isinstance(e, Call):
        return Call(e.func, [fold_expr(a) for a in e.args])
    if isinstance(e, UnaryOp):
        inner = fold_expr(e.operand)
        if isinstance(inner, IntLit):
            return IntLit(-inner.value)
        if isinstance(inner, UnaryOp):
            return inner.operand
        return UnaryOp("-", inner)
    if isinstance(e, BinOp):
        l, r = fold_expr(e.left), fold_expr(e.right)
        if isinstance(l, IntLit) and isinstance(r, IntLit):
            if e.op == "+":
                return IntLit(l.value + r.value)
            if e.op == "-":
                return IntLit(l.value - r.value)
            if e.op == "*":
                return IntLit(l.value * r.value)
        if e.op == "+":
            if isinstance(l, IntLit) and l.value == 0:
                return r
            if isinstance(r, IntLit) and r.value == 0:
                return l
            if isinstance(r, UnaryOp):
                return fold_expr(BinOp("-", l, r.operand))
            if isinstance(r, IntLit) and r.value < 0:
                return BinOp("-", l, IntLit(-r.value))
        if e.op == "-" and isinstance(r, IntLit) and r.value == 0:
            return l
        if e.op == "*":
            if isinstance(l, IntLit) and l.value == 1:
                return r
            if isinstance(r, IntLit) and r.value == 1:
                return l
        return BinOp(e.op, l, r)
    return e


# --------------------------------------------------------------------------
# bound and guard pruning
# --------------------------------------------------------------------------

def _context_constraints(loops: list[Loop], assume: System) -> System:
    """Affine facts guaranteed inside the given loop nest: parameter
    assumptions plus, per loop, the bound terms shared by every hull
    group (those are enforced for every statement)."""
    cs = list(assume.constraints)
    for loop in loops:
        for bound, lower in ((loop.lower, True), (loop.upper, False)):
            groups = bound.groups if isinstance(bound, HullBound) else (bound,)
            shared = set(groups[0].terms)
            for g in groups[1:]:
                shared &= set(g.terms)
            for t in shared:
                # v >= ceil(e/d) => d*v - e >= 0 ; v <= floor(e/d) => e - d*v >= 0
                if lower:
                    cs.append(ge0(t.div * var(loop.var) - t.expr))
                else:
                    cs.append(ge0(t.expr - t.div * var(loop.var)))
    return System(cs)


def _implies(context: System, c: Constraint) -> bool:
    """True when the context provably implies constraint ``c``."""
    if c.is_trivially_true():
        return True
    if c.is_equality():
        a = context.and_(ge0(c.expr - 1)).feasible() is Feasibility.INFEASIBLE
        b = context.and_(ge0(-c.expr - 1)).feasible() is Feasibility.INFEASIBLE
        return a and b
    return context.and_(ge0(-c.expr - 1)).feasible() is Feasibility.INFEASIBLE


def _bound_value_ge(context: System, a: Bound, b: Bound) -> bool:
    """Provably a >= b for all context points (both same polarity)."""
    # a >= b  <=>  not exists point with a <= b - 1.  With divisors this
    # is conservative: compare d_b*e_a >= d_a*e_b  =>  e_a/d_a >= e_b/d_b.
    diff = b.div * a.expr - a.div * b.expr
    return context.and_(ge0(-diff - 1)).feasible() is Feasibility.INFEASIBLE


def _prune_boundset(bs: BoundSet, context: System) -> BoundSet:
    terms = list(bs.terms)
    changed = True
    while changed and len(terms) > 1:
        changed = False
        for t in list(terms):
            others = [o for o in terms if o is not t]
            # lower bound: max(...) — t is redundant if some other >= t
            # upper bound: min(...) — t is redundant if some other <= t
            if bs.is_lower and any(_bound_value_ge(context, o, t) for o in others):
                terms.remove(t)
                changed = True
                break
            if not bs.is_lower and any(_bound_value_ge(context, t, o) for o in others):
                terms.remove(t)
                changed = True
                break
    return BoundSet(tuple(terms), bs.is_lower)


def _prune_bound(bound, context: System):
    if isinstance(bound, HullBound):
        groups = [_prune_boundset(g, context) for g in bound.groups]
        # hull lower = min over groups: drop group g if another group g'
        # is provably <= g (it determines the min); dually for upper.
        kept = list(groups)
        changed = True
        while changed and len(kept) > 1:
            changed = False
            for g in list(kept):
                others = [o for o in kept if o is not g]
                if len(g.terms) != 1:
                    continue
                for o in others:
                    if len(o.terms) != 1:
                        continue
                    if bound.is_lower and _bound_value_ge(context, g.terms[0], o.terms[0]):
                        kept.remove(g)
                        changed = True
                        break
                    if not bound.is_lower and _bound_value_ge(context, o.terms[0], g.terms[0]):
                        kept.remove(g)
                        changed = True
                        break
                if changed:
                    break
        return simplify_hull(HullBound(tuple(kept), bound.is_lower))
    return _prune_boundset(bound, context)


def simplify_program(program: Program, assume: System | None = None) -> Program:
    """Apply all cleanup passes; ``assume`` adds parameter facts such as
    ``N >= 1`` that license pruning (the paper's examples assume them
    silently).  ``generate_code`` ends with this pass and no assumption;
    calling it again, with none, leaves that output unchanged.

    The result keeps ``program.derivation``: the pass adds no loop and
    drops only loops left enclosing no statement, so each statement's
    enclosing loops still match its schedule rows one to one."""
    assume = assume or System()

    def walk(node: Node, loops: list[Loop]) -> Node | None:
        if isinstance(node, Statement):
            lhs = fold_expr(node.lhs)
            assert isinstance(lhs, (ArrayRef, VarRef))
            return Statement(node.label, lhs, fold_expr(node.rhs))
        if isinstance(node, Guard):
            from repro.ir.ast import ExprCondition

            context = _context_constraints(loops, assume)
            conds = [
                c for c in node.conditions
                if isinstance(c, ExprCondition) or not _implies(context, c)
            ]
            body = [walk(c, loops) for c in node.body]
            body = [b for b in body if b is not None]
            if not body:
                return None
            if not conds:
                return body[0] if len(body) == 1 else Guard((), tuple(body))
            affine_conds = [c for c in conds if isinstance(c, Constraint)]
            if any(
                context.and_(c).feasible() is Feasibility.INFEASIBLE
                for c in affine_conds
            ):
                return None  # guard can never hold
            return Guard(tuple(conds), tuple(body))
        assert isinstance(node, Loop)
        context = _context_constraints(loops, assume)
        lower = _prune_bound(node.lower, context)
        upper = _prune_bound(node.upper, context)
        new_loop = Loop(node.var, lower, upper, node.body, node.step)
        body = []
        for c in node.body:
            w = walk(c, loops + [new_loop])
            if w is None:
                continue
            if isinstance(w, Guard) and not w.conditions:
                body.extend(w.body)
            else:
                body.append(w)
        if not body:
            return None
        return new_loop.with_body(tuple(body))

    out = []
    for n in program.body:
        w = walk(n, [])
        if w is not None:
            if isinstance(w, Guard) and not w.conditions:
                out.extend(w.body)
            else:
                out.append(w)
    return program.with_body(
        tuple(out), name=program.name + "_simplified"
    ).derived(program.derivation)


# --------------------------------------------------------------------------
# iteration peeling (loop splitting)
# --------------------------------------------------------------------------

def peel_iteration(program: Program, loop_path: tuple[int, ...], which: str = "upper") -> Program:
    """Split the boundary iteration off the loop at ``loop_path``.

    ``do v = lo, hi { B }`` becomes ``do v = lo, hi-1 { B }`` followed by
    ``B[v := hi]`` (for ``which="upper"``; symmetric for ``"lower"``).
    The boundary bound must be a single affine term.  Combined with
    :func:`simplify_program` this turns equality-guarded singular-loop
    code into the paper's simplified §5.5 form.
    """
    if which not in ("upper", "lower"):
        raise CodegenError("which must be 'upper' or 'lower'")

    def locate(body: tuple[Node, ...], rest: tuple[int, ...]) -> tuple[Node, ...]:
        j = rest[0]
        node = body[j]
        if len(rest) == 1:
            if not isinstance(node, Loop):
                raise CodegenError(f"node at {loop_path} is not a loop")
            replaced = _peel(node, which)
            return body[:j] + tuple(replaced) + body[j + 1 :]
        if not isinstance(node, Loop):
            raise CodegenError(f"path {loop_path} does not descend through loops")
        return body[:j] + (node.with_body(locate(node.body, rest[1:])),) + body[j + 1 :]

    return program.with_body(locate(program.body, loop_path), name=program.name + "_peeled")


def _peel(loop: Loop, which: str) -> list[Node]:
    if loop.step != 1:
        raise CodegenError("peeling requires a unit-step loop")
    boundary_bound = loop.upper if which == "upper" else loop.lower
    try:
        boundary = boundary_bound.single_affine()
    except IRError as exc:
        raise CodegenError(f"cannot peel: boundary bound {boundary_bound} is not affine") from exc

    from repro.ir.expr import affine_to_expr

    sub = {loop.var: affine_to_expr(boundary)}
    peeled: list[Node] = [_relabel(child.substituted(sub)) for child in loop.body]

    if which == "upper":
        new_upper = BoundSet.affine(boundary - 1, False)
        trimmed = Loop(loop.var, loop.lower, new_upper, loop.body, loop.step)
        return [trimmed] + peeled
    new_lower = BoundSet.affine(boundary + 1, True)
    trimmed = Loop(loop.var, new_lower, loop.upper, loop.body, loop.step)
    return peeled + [trimmed]


def _relabel(node: Node) -> Node:
    """Give peeled statement copies fresh labels (``<label>_p``)."""
    if isinstance(node, Statement):
        return Statement(node.label + "_p", node.lhs, node.rhs)
    if isinstance(node, Loop):
        return node.with_body(tuple(_relabel(c) for c in node.body))
    if isinstance(node, Guard):
        return Guard(node.conditions, tuple(_relabel(c) for c in node.body))
    raise CodegenError(f"cannot relabel node {node!r}")  # pragma: no cover
