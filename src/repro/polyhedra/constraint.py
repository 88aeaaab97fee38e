"""Linear constraints over integer variables.

A :class:`Constraint` is an affine expression together with a relation:
``expr >= 0`` (inequality) or ``expr == 0`` (equality).  Constraints are
normalized on construction — coefficients divided by their gcd, with the
constant of an inequality *floor*-divided (the standard integer
tightening step, e.g. ``2x - 1 >= 0`` becomes ``x - 1 >= 0`` over ℤ).
"""

from __future__ import annotations

from typing import Mapping

from repro.polyhedra.affine import LinExpr
from repro.util.errors import PolyhedronError

__all__ = ["Constraint", "ge0", "eq0", "le", "ge", "eq"]


class Constraint:
    """``expr >= 0`` (kind ``'>='``) or ``expr == 0`` (kind ``'=='``)."""

    __slots__ = ("expr", "kind")

    GE = ">="
    EQ = "=="

    def __init__(self, expr: LinExpr, kind: str = GE):
        if kind not in (self.GE, self.EQ):
            raise PolyhedronError(f"unknown constraint kind {kind!r}")
        self.expr = _normalize(expr, kind)
        self.kind = kind

    # -- queries -----------------------------------------------------------

    def is_equality(self) -> bool:
        return self.kind == self.EQ

    def variables(self) -> frozenset[str]:
        return self.expr.variables()

    def is_trivially_true(self) -> bool:
        return self.expr.is_constant() and (
            self.expr.constant == 0 if self.is_equality() else self.expr.constant >= 0
        )

    def is_trivially_false(self) -> bool:
        return self.expr.is_constant() and (
            self.expr.constant != 0 if self.is_equality() else self.expr.constant < 0
        )

    def satisfied_by(self, env: Mapping[str, int]) -> bool:
        v = self.expr.eval(env)
        return v == 0 if self.is_equality() else v >= 0

    # -- transformation ----------------------------------------------------

    def substitute(self, name: str, replacement: LinExpr) -> "Constraint":
        return Constraint(self.expr.substitute(name, replacement), self.kind)

    def rename(self, mapping: Mapping[str, str]) -> "Constraint":
        return Constraint(self.expr.rename(mapping), self.kind)

    def negated_pair(self) -> tuple["Constraint", "Constraint"]:
        """For an equality, the two inequalities ``expr >= 0`` and
        ``-expr >= 0`` it is equivalent to."""
        if not self.is_equality():
            raise PolyhedronError("negated_pair is only defined for equalities")
        return Constraint(self.expr, self.GE), Constraint(-self.expr, self.GE)

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Constraint):
            return NotImplemented
        return self.kind == other.kind and self.expr == other.expr

    def __hash__(self) -> int:  # normalized on construction: equal constraints hash alike
        return hash((self.kind, self.expr.key()))

    def __repr__(self) -> str:
        return f"Constraint({self.expr!s} {self.kind} 0)"

    def __str__(self) -> str:
        return f"{self.expr} {self.kind} 0"


def _normalize(expr: LinExpr, kind: str) -> LinExpr:
    """Divide by the content gcd; floor the constant for inequalities."""
    g = expr.content()
    if g <= 1:
        return expr
    coeffs = {k: c // g for k, c in expr.coeffs.items()}
    c = expr.constant
    if kind == Constraint.EQ:
        if c % g != 0:
            # g | all coefficients but not the constant: unsatisfiable over Z.
            # Encode as the canonical false equality 1 == 0 scaled into the
            # expression (keep it detectable via is_trivially_false).
            return LinExpr({}, 1) if c > 0 else LinExpr({}, -1)
        return LinExpr(coeffs, c // g)
    # integer tightening: sum(ci*vi) + c >= 0  <=>  sum((ci/g)vi) + floor(c/g) >= 0
    return LinExpr(coeffs, c // g)  # Python // floors


# -- convenience constructors -------------------------------------------------

def ge0(expr: LinExpr) -> Constraint:
    """``expr >= 0``."""
    return Constraint(expr, Constraint.GE)


def eq0(expr: LinExpr) -> Constraint:
    """``expr == 0``."""
    return Constraint(expr, Constraint.EQ)


def le(a: LinExpr | int, b: LinExpr | int) -> Constraint:
    """``a <= b``."""
    return ge0(_as_expr(b) - _as_expr(a))


def ge(a: LinExpr | int, b: LinExpr | int) -> Constraint:
    """``a >= b``."""
    return ge0(_as_expr(a) - _as_expr(b))


def eq(a: LinExpr | int, b: LinExpr | int) -> Constraint:
    """``a == b``."""
    return eq0(_as_expr(a) - _as_expr(b))


def lt(a: LinExpr | int, b: LinExpr | int) -> Constraint:
    """``a < b`` (i.e. ``a <= b - 1`` over the integers)."""
    return ge0(_as_expr(b) - _as_expr(a) - 1)


def gt(a: LinExpr | int, b: LinExpr | int) -> Constraint:
    """``a > b`` (i.e. ``a >= b + 1`` over the integers)."""
    return ge0(_as_expr(a) - _as_expr(b) - 1)


def _as_expr(x) -> LinExpr:
    if isinstance(x, LinExpr):
        return x
    if isinstance(x, int):
        return LinExpr({}, x)
    raise PolyhedronError(f"expected LinExpr or int, got {type(x).__name__}")
