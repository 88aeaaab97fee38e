"""Loop-bound extraction from constraint systems.

Implements the classic Fourier–Motzkin scheme for scanning a polyhedron
with DO loops (Ancourt & Irigoin): given loop variables ordered
outer→inner, the bounds of each variable are max/min of affine forms
(with integer ceil/floor divisions) over the outer variables and the
symbolic parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.polyhedra.affine import LinExpr
from repro.polyhedra.system import System
from repro.util.errors import PolyhedronError

__all__ = ["Bound", "LoopBounds", "extract_bounds"]


@dataclass(frozen=True)
class Bound:
    """One affine bound term: ``ceil(expr / div)`` or ``floor(expr / div)``.

    ``div`` is always >= 1; ``is_lower`` selects ceil (lower bounds) or
    floor (upper bounds) semantics.
    """

    expr: LinExpr
    div: int
    is_lower: bool

    def __post_init__(self):
        if self.div < 1:
            raise PolyhedronError("bound divisor must be positive")

    def eval(self, env: dict[str, int]) -> int:
        v = self.expr.eval(env)
        if self.div == 1:
            return v
        return -((-v) // self.div) if self.is_lower else v // self.div

    def __str__(self) -> str:
        if self.div == 1:
            return str(self.expr)
        fn = "ceild" if self.is_lower else "floord"
        return f"{fn}({self.expr}, {self.div})"


@dataclass(frozen=True)
class LoopBounds:
    """All bounds for one loop variable.

    The loop runs ``max(lowers) .. min(uppers)``; either list being empty
    means the variable is unbounded on that side (an error for codegen).
    """

    name: str
    lowers: tuple[Bound, ...]
    uppers: tuple[Bound, ...]

    def lower_value(self, env: dict[str, int]) -> int:
        if not self.lowers:
            raise PolyhedronError(f"loop {self.name} has no lower bound")
        return max(b.eval(env) for b in self.lowers)

    def upper_value(self, env: dict[str, int]) -> int:
        if not self.uppers:
            raise PolyhedronError(f"loop {self.name} has no upper bound")
        return min(b.eval(env) for b in self.uppers)

    def __str__(self) -> str:
        lo = ", ".join(map(str, self.lowers)) or "-inf"
        hi = ", ".join(map(str, self.uppers)) or "+inf"
        if len(self.lowers) > 1:
            lo = f"max({lo})"
        if len(self.uppers) > 1:
            hi = f"min({hi})"
        return f"{self.name} = {lo} .. {hi}"


def extract_bounds(
    system: System,
    loop_vars: Sequence[str],
    params: Sequence[str] = (),
) -> list[LoopBounds]:
    """Bounds for ``loop_vars`` (outer→inner) scanning ``system``.

    The bounds of ``loop_vars[i]`` may reference ``loop_vars[:i]`` and
    ``params`` only.  Raises :class:`PolyhedronError` if the projected
    system for some variable leaves it unbounded in a direction, or if
    elimination proves the polyhedron empty (in which case there is
    nothing to scan — callers should treat that as a zero-trip nest).
    """
    allowed = set(params)
    out: list[LoopBounds] = []
    for i, v in enumerate(loop_vars):
        keep = list(params) + list(loop_vars[: i + 1])
        projected, _exact = system.project_onto(keep)
        if projected.is_trivially_false():
            raise PolyhedronError("polyhedron is empty; no loop bounds")
        lowers: list[Bound] = []
        uppers: list[Bound] = []
        for is_eq, terms, k in projected.terms():
            coeffs = dict(terms)
            a = coeffs.pop(v, 0)
            if a == 0:
                continue
            bad = coeffs.keys() - allowed
            if bad:
                raise PolyhedronError(
                    f"bound for {v} references non-outer variables {sorted(bad)}"
                )
            # a*v + rest (== | >=) 0:  v >= ceil(-rest / a) for a > 0,
            # v <= floor(rest / -a) for a < 0; an equality bounds both ways
            e = LinExpr(coeffs, k) if a < 0 else LinExpr({n: -c for n, c in coeffs.items()}, -k)
            if is_eq or a > 0:
                lowers.append(Bound(e, abs(a), True))
            if is_eq or a < 0:
                uppers.append(Bound(e, abs(a), False))
        out.append(LoopBounds(v, _dedup(lowers), _dedup(uppers)))
        allowed.add(v)
    return out


def _dedup(bounds: list[Bound]) -> tuple[Bound, ...]:
    seen: dict[Bound, None] = {}
    for b in bounds:
        seen.setdefault(b)
    return tuple(seen)
