"""Random imperfect loop-nest generator for property-based testing.

Generates small programs with affine accesses whose declared array
ranges are padded generously, so every subscript a random transformation
can produce stays in bounds.  Used by the hypothesis/property tests and
the differential fuzzer (:mod:`repro.fuzz`) to cross-check the symbolic
machinery against the interpreter.

Determinism contract: every draw comes from one local
``random.Random(seed)`` instance — no module-level ``random.*`` calls,
no ambient state — so the same ``(seed, shape, sizes)`` arguments
produce a byte-identical program in any process (see
``tests/kernels/test_factorizations.py::TestGenerator``).
"""

from __future__ import annotations

import random

from repro.ir.ast import ArrayDecl, Loop, Node, Program, Statement
from repro.ir.expr import ArrayRef, BinOp, Call, IntLit, VarRef
from repro.polyhedra.affine import LinExpr, var

__all__ = ["random_program", "SHAPES"]

_PAD = 64

#: Weighted program shapes the fuzzer draws from.  ``mixed`` is the
#: historical default distribution; the others force a structural class
#: so rare forms (perfect nests, deep imperfect nests, triangular
#: bounds, wide multi-statement bodies) are sampled often enough to
#: exercise their dedicated pipeline paths.
SHAPES = ("mixed", "perfect", "deep", "triangular", "multi", "stencil")


def random_program(
    seed: int,
    *,
    max_depth: int = 3,
    max_children: int = 3,
    n_arrays: int = 2,
    shape: str = "mixed",
) -> Program:
    """A random imperfect nest, deterministic in ``seed`` (and ``shape``).

    Loops have bounds ``1..N`` or triangular (``prev+1..N``); statements
    read/write 1-D or 2-D arrays with subscripts of the form
    ``±loop ± small-constant``.

    ``shape`` selects a structural class (see :data:`SHAPES`):

    * ``"mixed"`` — the historical default distribution;
    * ``"perfect"`` — a single perfectly nested chain, statements only at
      the innermost level, rectangular bounds;
    * ``"deep"`` — depth-4 imperfect nests with statements between loops;
    * ``"triangular"`` — every non-outermost loop is triangular;
    * ``"multi"`` — wide bodies (many statements per loop);
    * ``"stencil"`` — a time loop around an in-place shifted read such
      as ``A(V2) = f(A(V2 - 1), A(V2 + 1))`` (Gauss–Seidel's shape:
      after a skew and an interchange a dependence falls through to
      the inner loop), sometimes followed by a second sweep.
    """
    if shape not in SHAPES:
        raise ValueError(f"unknown program shape {shape!r}; expected one of {SHAPES}")
    rng = random.Random(seed)
    if shape == "deep":
        max_depth = max(max_depth, 4)
    if shape == "multi":
        max_children = max(max_children, 4)
    arrays = [f"R{i}" for i in range(n_arrays)]
    ranks = {a: rng.choice((1, 2)) for a in arrays}
    label_counter = [0]
    loop_counter = [0]

    def fresh_label() -> str:
        label_counter[0] += 1
        return f"S{label_counter[0]}"

    def fresh_var() -> str:
        loop_counter[0] += 1
        return f"V{loop_counter[0]}"

    def subscript(loop_vars: list[str]):
        v = rng.choice(loop_vars)
        c = rng.randint(-2, 2)
        sign = rng.choice((1, 1, 1, -1))
        e: object = VarRef(v) if sign == 1 else BinOp("-", IntLit(0), VarRef(v))
        if c:
            e = BinOp("+", e, IntLit(c))
        return e

    def statement(loop_vars: list[str]) -> Statement:
        arr = rng.choice(arrays)
        lhs = ArrayRef(arr, [subscript(loop_vars) for _ in range(ranks[arr])])
        src = rng.choice(arrays)
        read = ArrayRef(src, [subscript(loop_vars) for _ in range(ranks[src])])
        rhs = BinOp(rng.choice(("+", "-", "*")), read, Call("f", [VarRef(loop_vars[-1])]))
        return Statement(fresh_label(), lhs, rhs)

    def stop_early(loop_vars: list[str]) -> bool:
        if shape == "perfect":
            return False  # always reach max_depth before placing the body
        p = 0.25 if shape == "deep" else 0.35
        return bool(loop_vars) and rng.random() < p

    def triangular_here(loop_vars: list[str]) -> bool:
        if not loop_vars:
            return False
        if shape == "perfect":
            return False
        if shape == "triangular":
            return True
        return rng.random() < 0.5

    def n_children_here(depth: int) -> int:
        if shape == "perfect":
            return 1
        if shape == "multi":
            return rng.randint(2, max_children)
        return rng.randint(1, max_children)

    def build(depth: int, loop_vars: list[str]) -> Node:
        if depth >= max_depth or stop_early(loop_vars):
            return statement(loop_vars)
        v = fresh_var()
        lower = var(loop_vars[-1]) + 1 if triangular_here(loop_vars) else LinExpr({}, 1)
        upper = var("N")
        n_children = n_children_here(depth)
        body = [build(depth + 1, loop_vars + [v]) for _ in range(n_children)]
        # ensure at least one statement exists somewhere under a loop
        if not any(True for c in body for _ in c.statements()):
            body.append(statement(loop_vars + [v]))
        return Loop.make(v, lower, upper, body)

    if shape == "stencil":
        time, space = fresh_var(), fresh_var()
        arr = arrays[0]
        ranks[arr] = 1
        reads = [
            ArrayRef(arr, [BinOp("+", VarRef(space), IntLit(c)) if c else VarRef(space)])
            for c in (rng.choice((-2, -1)), rng.choice((0, 1, 2)))
        ]
        sweeps: list[Node] = [Loop.make(space, 1, var("N"), [Statement(
            fresh_label(), ArrayRef(arr, [VarRef(space)]), Call("f", reads),
        )])]
        if rng.random() < 0.5:
            v = fresh_var()
            sweeps.append(Loop.make(v, 1, var("N"), [statement([time, v])]))
        top: Node = Loop.make(time, 1, var("N"), sweeps)
    elif shape == "perfect":
        # a single chain of loops with 1-3 statements at the innermost level
        vs = [fresh_var() for _ in range(max(2, max_depth))]
        body: list[Node] = [statement(vs) for _ in range(rng.randint(1, 3))]
        for v in reversed(vs):
            body = [Loop.make(v, LinExpr({}, 1), var("N"), body)]
        top: Node = body[0]
    else:
        top = build(0, [])
    if isinstance(top, Statement):  # degenerate: wrap in a loop
        v = fresh_var()
        top = Loop.make(v, 1, var("N"), [statement([v])])
    decls = tuple(
        ArrayDecl.make(a, *[(-_PAD, LinExpr({"N": 1}, _PAD)) for _ in range(ranks[a])])
        for a in arrays
    )
    suffix = "" if shape == "mixed" else f"_{shape}"
    return Program((top,), ("N",), decls, f"random_{seed}{suffix}")
