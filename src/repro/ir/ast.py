"""Loop-nest IR: programs, loops, guards and atomic statements.

The AST mirrors the paper's view: internal nodes are DO loops, leaves
are atomic assignment statements, and the left-to-right order of a
node's children is sequential execution order.  Generated (transformed)
code additionally uses :class:`Guard` nodes for the point-wise
conditions that singular loops require, and loop bounds that are
max/min over ceil/floor-divided affine terms.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from repro.ir.expr import ArrayRef, Expr, VarRef, as_affine
from repro.polyhedra.affine import LinExpr
from repro.polyhedra.bounds import Bound
from repro.polyhedra.constraint import Constraint
from repro.util.errors import IRError

if TYPE_CHECKING:  # pragma: no cover
    from repro.dependence.depvector import DependenceMatrix
    from repro.instance.layout import Layout
    from repro.linalg.intmat import IntMatrix

__all__ = [
    "Node", "Statement", "Loop", "Guard", "Program", "BoundSet", "HullBound",
    "simplify_hull", "ArrayDecl", "ExprCondition", "Derivation",
]


@dataclass(frozen=True)
class BoundSet:
    """A loop bound: max (lower) or min (upper) of affine/divided terms."""

    terms: tuple[Bound, ...]
    is_lower: bool

    @staticmethod
    def affine(expr: LinExpr | int, is_lower: bool) -> "BoundSet":
        if isinstance(expr, int):
            expr = LinExpr({}, expr)
        return BoundSet((Bound(expr, 1, is_lower),), is_lower)

    def __post_init__(self):
        if not self.terms:
            raise IRError("a loop bound needs at least one term")
        for t in self.terms:
            if t.is_lower != self.is_lower:
                raise IRError("mixed lower/upper terms in one BoundSet")

    def eval(self, env: Mapping[str, int]) -> int:
        vals = [t.eval(env) for t in self.terms]
        return max(vals) if self.is_lower else min(vals)

    def variables(self) -> frozenset[str]:
        out: set[str] = set()
        for t in self.terms:
            out |= t.expr.variables()
        return frozenset(out)

    def single_affine(self) -> LinExpr:
        """The bound as a plain affine expression, if it is one term with
        divisor 1; raises IRError otherwise."""
        if len(self.terms) == 1 and self.terms[0].div == 1:
            return self.terms[0].expr
        raise IRError(f"bound {self} is not a single affine expression")

    def __str__(self) -> str:
        inner = ", ".join(map(str, self.terms))
        if len(self.terms) == 1:
            return inner
        return f"{'max' if self.is_lower else 'min'}({inner})"


@dataclass(frozen=True)
class HullBound:
    """A shared-loop bound: the hull over several statements' bounds.

    Each *group* is one statement's bound at this loop level (max of
    terms for lower bounds, min for upper).  The hull of a union takes
    the loosest group: ``min`` over groups for a lower bound, ``max``
    for an upper bound.  Code generation uses this for loops shared by
    statements with different active ranges (§5.4/§5.5).
    """

    groups: tuple[BoundSet, ...]
    is_lower: bool

    def __post_init__(self):
        if not self.groups:
            raise IRError("a hull bound needs at least one group")
        for g in self.groups:
            if g.is_lower != self.is_lower:
                raise IRError("mixed lower/upper groups in one HullBound")

    def eval(self, env: Mapping[str, int]) -> int:
        vals = [g.eval(env) for g in self.groups]
        return min(vals) if self.is_lower else max(vals)

    def variables(self) -> frozenset[str]:
        out: set[str] = set()
        for g in self.groups:
            out |= g.variables()
        return frozenset(out)

    def single_affine(self) -> LinExpr:
        if len(self.groups) == 1:
            return self.groups[0].single_affine()
        raise IRError(f"hull bound {self} is not a single affine expression")

    def __str__(self) -> str:
        if len(self.groups) == 1:
            return str(self.groups[0])
        inner = ", ".join(map(str, self.groups))
        return f"{'min' if self.is_lower else 'max'}({inner})"


def simplify_hull(bound: "HullBound | BoundSet") -> "HullBound | BoundSet":
    """Collapse a hull with identical groups to a plain BoundSet."""
    if isinstance(bound, HullBound):
        unique = []
        for g in bound.groups:
            if g not in unique:
                unique.append(g)
        if len(unique) == 1:
            return unique[0]
        return HullBound(tuple(unique), bound.is_lower)
    return bound


class Node:
    """Base class for AST body nodes."""

    def statements(self) -> Iterator["Statement"]:
        raise NotImplementedError

    def substituted(self, mapping: Mapping[str, Expr]) -> "Node":
        raise NotImplementedError


@dataclass(frozen=True)
class Statement(Node):
    """An atomic assignment ``lhs = rhs`` with a unique label."""

    label: str
    lhs: ArrayRef | VarRef
    rhs: Expr

    def __post_init__(self):
        if not isinstance(self.lhs, (ArrayRef, VarRef)):
            raise IRError(f"statement lhs must be an array or scalar ref, got {self.lhs!r}")

    def statements(self) -> Iterator["Statement"]:
        yield self

    def substituted(self, mapping: Mapping[str, Expr]) -> "Statement":
        lhs = self.lhs.substitute_vars(mapping)
        if isinstance(self.lhs, VarRef) and not isinstance(lhs, (ArrayRef, VarRef)):
            raise IRError("substitution into a statement lhs must stay a reference")
        return Statement(self.label, lhs, self.rhs.substitute_vars(mapping))

    def reads(self) -> list[ArrayRef]:
        """Array references read by this statement (RHS plus LHS
        subscript expressions)."""
        refs = self.rhs.array_refs()
        if isinstance(self.lhs, ArrayRef):
            for s in self.lhs.subscripts:
                refs.extend(s.array_refs())
        return refs

    def writes(self) -> list[ArrayRef]:
        """Array references written by this statement."""
        return [self.lhs] if isinstance(self.lhs, ArrayRef) else []

    def __str__(self) -> str:
        return f"{self.label}: {self.lhs} = {self.rhs}"


@dataclass(frozen=True)
class Loop(Node):
    """``do var = lower, upper, step`` with a body of child nodes."""

    var: str
    lower: "BoundSet | HullBound"
    upper: "BoundSet | HullBound"
    body: tuple[Node, ...]
    step: int = 1

    def __post_init__(self):
        if self.step == 0:
            raise IRError("loop step cannot be zero")
        if self.lower.is_lower is not True or self.upper.is_lower is not False:
            raise IRError("loop bounds have wrong polarity")
        if not isinstance(self.body, tuple):
            object.__setattr__(self, "body", tuple(self.body))

    @staticmethod
    def make(var: str, lower, upper, body: Sequence[Node], step: int = 1) -> "Loop":
        """Convenience constructor accepting ints/LinExprs/BoundSets."""
        lo = lower if isinstance(lower, BoundSet) else BoundSet.affine(lower, True)
        hi = upper if isinstance(upper, BoundSet) else BoundSet.affine(upper, False)
        return Loop(var, lo, hi, tuple(body), step)

    def statements(self) -> Iterator[Statement]:
        for child in self.body:
            yield from child.statements()

    def substituted(self, mapping: Mapping[str, Expr]) -> "Loop":
        if self.var in mapping:
            raise IRError(f"cannot substitute bound loop variable {self.var}")

        def sub_bound(bound):
            def sub_set(bs: BoundSet) -> BoundSet:
                terms = []
                for t in bs.terms:
                    e = t.expr
                    for name, repl in mapping.items():
                        if e[name] != 0:
                            e = e.substitute(name, as_affine(repl))
                    terms.append(Bound(e, t.div, t.is_lower))
                return BoundSet(tuple(terms), bs.is_lower)

            if isinstance(bound, HullBound):
                return HullBound(tuple(sub_set(g) for g in bound.groups), bound.is_lower)
            return sub_set(bound)

        return Loop(self.var, sub_bound(self.lower), sub_bound(self.upper),
                    tuple(c.substituted(mapping) for c in self.body), self.step)

    def with_body(self, body: Sequence[Node]) -> "Loop":
        return Loop(self.var, self.lower, self.upper, tuple(body), self.step)

    def __str__(self) -> str:
        return f"do {self.var} = {self.lower}, {self.upper}" + (f", {self.step}" if self.step != 1 else "")


@dataclass(frozen=True)
class ExprCondition:
    """A guard condition over an integer expression tree: ``expr == 0``
    (kind ``'=='``) or ``expr >= 0`` (kind ``'>='``).

    Unlike :class:`~repro.polyhedra.constraint.Constraint`, the
    expression may contain exact integer divisions — this is how
    non-unimodular per-statement transformations express their lattice
    (divisibility) conditions, e.g. ``(I2 % 2) == 0``.
    """

    expr: Expr
    kind: str = "=="

    def __post_init__(self):
        if self.kind not in ("==", ">="):
            raise IRError(f"unknown condition kind {self.kind!r}")

    def variables(self) -> frozenset[str]:
        return self.expr.variables()

    def is_equality(self) -> bool:
        return self.kind == "=="

    def satisfied_by(self, env: Mapping[str, int]) -> bool:
        v = _eval_int_expr(self.expr, env)
        return v == 0 if self.kind == "==" else v >= 0

    def substitute_all(self, mapping: Mapping[str, Expr]) -> "ExprCondition":
        return ExprCondition(self.expr.substitute_vars(mapping), self.kind)

    def __str__(self) -> str:
        return f"{self.expr} {self.kind} 0"


def _eval_int_expr(e: Expr, env: Mapping[str, int]) -> int:
    """Exact integer evaluation of an array-free expression; ``/`` is
    exact division (raises if inexact — guards must test divisibility
    with ``%`` before dividing)."""
    from repro.ir.expr import BinOp, IntLit, UnaryOp, VarRef

    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, VarRef):
        try:
            return int(env[e.name])
        except KeyError:
            raise IRError(f"unbound variable {e.name!r} in condition") from None
    if isinstance(e, UnaryOp):
        return -_eval_int_expr(e.operand, env)
    if isinstance(e, BinOp):
        l = _eval_int_expr(e.left, env)
        r = _eval_int_expr(e.right, env)
        if e.op == "+":
            return l + r
        if e.op == "-":
            return l - r
        if e.op == "*":
            return l * r
        if e.op == "%":
            return l % r
        if e.op == "/":
            q, rem = divmod(l, r)
            if rem:
                raise IRError(f"inexact division {l}/{r} in condition")
            return q
    raise IRError(f"cannot evaluate {e} as an integer condition")


@dataclass(frozen=True)
class Guard(Node):
    """``if (cond1 and cond2 ...) then body endif`` — used by generated
    code for singular-loop point conditions and lattice (divisibility)
    conditions.  Conditions are :class:`Constraint` (affine) or
    :class:`ExprCondition` (expression-tree) instances."""

    conditions: tuple["Constraint | ExprCondition", ...]
    body: tuple[Node, ...]

    def __post_init__(self):
        if not isinstance(self.body, tuple):
            object.__setattr__(self, "body", tuple(self.body))
        if not isinstance(self.conditions, tuple):
            object.__setattr__(self, "conditions", tuple(self.conditions))

    def statements(self) -> Iterator[Statement]:
        for child in self.body:
            yield from child.statements()

    def substituted(self, mapping: Mapping[str, Expr]) -> "Guard":
        conds: list[Constraint | ExprCondition] = []
        for c in self.conditions:
            if isinstance(c, ExprCondition):
                conds.append(c.substitute_all(mapping))
                continue
            new = c.expr
            for name, repl in mapping.items():
                new = new.substitute(name, as_affine(repl))
            conds.append(Constraint(new, c.kind))
        return Guard(tuple(conds), tuple(b.substituted(mapping) for b in self.body))

    def __str__(self) -> str:
        return "if (" + " and ".join(str(c) for c in self.conditions) + ") then"


@dataclass(frozen=True)
class ArrayDecl:
    """Array declaration with per-dimension index ranges ``lo:hi``."""

    name: str
    dims: tuple[tuple[LinExpr, LinExpr], ...]

    @staticmethod
    def make(name: str, *dims) -> "ArrayDecl":
        """Each dim is ``hi`` (meaning ``1:hi``) or a ``(lo, hi)`` pair;
        ints and LinExprs both accepted."""
        out = []
        for d in dims:
            if isinstance(d, tuple):
                lo, hi = d
            else:
                lo, hi = 1, d
            lo = LinExpr({}, lo) if isinstance(lo, int) else lo
            hi = LinExpr({}, hi) if isinstance(hi, int) else hi
            out.append((lo, hi))
        return ArrayDecl(name, tuple(out))

    @property
    def rank(self) -> int:
        return len(self.dims)

    def __str__(self) -> str:
        parts = []
        for lo, hi in self.dims:
            parts.append(str(hi) if lo == LinExpr({}, 1) else f"{lo}:{hi}")
        return f"{self.name}({', '.join(parts)})"


@dataclass(frozen=True)
class Derivation:
    """The schedule a generated program was generated from.

    ``matrix`` is M over the source ``layout`` and ``deps`` the source's
    dependence matrix D, so the generated program's dependences are
    M·D (§4) and its DOALL loops can be read off M·D (§7) instead of
    re-analysing the generated code.  ``extra_rows[label]`` are the
    §5.4 augmented rows of that statement's innermost extra loops, over
    its source loops outside-in; its shared loops are M's rows.
    """

    layout: "Layout"
    matrix: "IntMatrix"
    deps: "DependenceMatrix"
    extra_rows: Mapping[str, tuple[tuple[int, ...], ...]]


@dataclass(frozen=True)
class Program:
    """A whole loop nest: parameters, array declarations and a body.

    ``derivation`` is set only on the output of code generation and of
    :func:`repro.codegen.simplify.simplify_program` applied to it (see
    :meth:`derived`); every other constructor and rewrite, ``Program(...)``
    and :meth:`with_body` included, leaves it ``None``.  It takes no
    part in equality, hashing, printing or any memo key.
    """

    body: tuple[Node, ...]
    params: tuple[str, ...] = ()
    arrays: tuple[ArrayDecl, ...] = ()
    name: str = "program"
    derivation: Derivation | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        for attr in ("body", "params", "arrays"):
            v = getattr(self, attr)
            if not isinstance(v, tuple):
                object.__setattr__(self, attr, tuple(v))
        self.validate()

    # -- queries ---------------------------------------------------------------

    def statements(self) -> list[Statement]:
        """All atomic statements in syntactic (depth-first) order — the
        paper's ⪯ₛ order."""
        out: list[Statement] = []
        for node in self.body:
            out.extend(node.statements())
        return out

    def statement(self, label: str) -> Statement:
        for s in self.statements():
            if s.label == label:
                return s
        raise IRError(f"no statement labeled {label!r}")

    def array(self, name: str) -> ArrayDecl:
        for a in self.arrays:
            if a.name == name:
                return a
        raise IRError(f"no array named {name!r}")

    def enclosing_loops(self, label: str) -> list[Loop]:
        """The loops surrounding the statement, outermost first."""
        path = self._find_path(label)
        return [n for n in path if isinstance(n, Loop)]

    def loop_vars(self, label: str) -> list[str]:
        return [l.var for l in self.enclosing_loops(label)]

    def common_loop_vars(self, label1: str, label2: str) -> list[str]:
        """Loop variables of the loops common to both statements,
        outside-in (paper Definition 2)."""
        p1 = [n for n in self._find_path(label1) if isinstance(n, Loop)]
        p2 = [n for n in self._find_path(label2) if isinstance(n, Loop)]
        out = []
        for a, b in zip(p1, p2):
            if a is b:
                out.append(a.var)
            else:
                break
        return out

    def syntactically_before(self, label1: str, label2: str) -> bool:
        """The paper's ⪯ₛ: label1 occurs no later than label2 in a
        depth-first AST walk (reflexive)."""
        labels = [s.label for s in self.statements()]
        return labels.index(label1) <= labels.index(label2)

    def all_loops(self) -> list[Loop]:
        out: list[Loop] = []

        def walk(node: Node):
            if isinstance(node, Loop):
                out.append(node)
            if isinstance(node, (Loop, Guard)):
                for c in node.body:
                    walk(c)

        for n in self.body:
            walk(n)
        return out

    def _find_path(self, label: str) -> list[Node]:
        """Nodes from a top-level entry down to the statement (inclusive)."""

        def walk(node: Node, path: list[Node]) -> list[Node] | None:
            path = path + [node]
            if isinstance(node, Statement):
                return path if node.label == label else None
            if isinstance(node, (Loop, Guard)):
                for c in node.body:
                    r = walk(c, path)
                    if r is not None:
                        return r
            return None

        for n in self.body:
            r = walk(n, [])
            if r is not None:
                return r
        raise IRError(f"no statement labeled {label!r}")

    # -- validation ---------------------------------------------------------------

    def validate(self) -> None:
        """Check label uniqueness and loop-variable scoping."""
        labels = [s.label for s in self.statements()]
        dupes = {l for l in labels if labels.count(l) > 1}
        if dupes:
            raise IRError(f"duplicate statement labels {sorted(dupes)}")

        def walk(node: Node, loop_vars: tuple[str, ...]):
            if isinstance(node, Loop):
                if node.var in loop_vars:
                    raise IRError(f"loop variable {node.var} shadows an outer loop")
                if node.var in self.params:
                    raise IRError(f"loop variable {node.var} shadows a parameter")
                for c in node.body:
                    walk(c, loop_vars + (node.var,))
            elif isinstance(node, Guard):
                for c in node.body:
                    walk(c, loop_vars)

        for n in self.body:
            walk(n, ())

    # -- derived programs -----------------------------------------------------------

    def with_body(self, body: Sequence[Node], name: str | None = None) -> "Program":
        return Program(tuple(body), self.params, self.arrays, name or self.name)

    def derived(self, derivation: Derivation | None) -> "Program":
        """This program, carrying ``derivation``."""
        out = copy.copy(self)
        object.__setattr__(out, "derivation", derivation)
        return out

    def fresh_label(self, base: str = "S") -> str:
        used = {s.label for s in self.statements()}
        for i in itertools.count(1):
            cand = f"{base}{i}"
            if cand not in used:
                return cand
        raise AssertionError("unreachable")

    def __str__(self) -> str:
        from repro.ir.printer import program_to_str

        return program_to_str(self)
