"""Greedy shrinking of failing fuzz cases to minimal reproducers.

Given a failing :class:`~repro.fuzz.case.FuzzCase` and a predicate that
re-runs a candidate and reports whether the *same kind* of failure
persists, :func:`shrink_case` repeatedly applies structural reductions —
drop a statement, splice out a loop (substituting its variable by its
lower bound), drop or weaken spec operations, shrink the problem size —
accepting a candidate only when it is strictly smaller under
:func:`case_size` *and* still failing.  Size is a positive integer that
strictly decreases on every accepted step, so the walk terminates at a
fixed point: a case none of whose one-step reductions still fails.

Transformations are shrunk through their *symbolic* spec (loop names,
statement labels), never through the raw matrix, so structural
reductions that change the layout dimension stay well-formed — spec
operations that mention a removed loop or statement are dropped with it.
"""

from __future__ import annotations

import re
from typing import Callable

from repro.fuzz.case import FuzzCase
from repro.ir import parse_program, program_to_str
from repro.ir.ast import Loop, Node, Program, Statement
from repro.ir.expr import affine_to_expr
from repro.obs import counter, span
from repro.transform.spec import parse_part, spec_ops
from repro.util.errors import ReproError

__all__ = ["shrink_case", "case_size", "shrink_candidates"]

_MIN_N = 2
_WORD = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def case_size(case: FuzzCase) -> int:
    """Strictly positive size metric: statements and loops of the
    program, spec complexity, and the parameter values."""
    try:
        program = parse_program(case.program_src, "size")
    except ReproError:
        return 10**9  # unparseable candidates are never an improvement
    n_stmts = len(program.statements())
    n_loops = len(program.all_loops())
    spec_cost = 0
    for op in spec_ops(case.spec):
        spec_cost += 1
        for tok in re.findall(r"-?\d+", op):
            spec_cost += abs(int(tok))
    param_cost = sum(v for _, v in case.params)
    return 3 * n_stmts + 2 * n_loops + spec_cost + param_cost + 1


def shrink_case(
    case: FuzzCase,
    still_failing: Callable[[FuzzCase], bool],
    *,
    max_attempts: int = 400,
) -> tuple[FuzzCase, int]:
    """Greedily minimize ``case`` under ``still_failing``.

    Returns ``(minimal_case, accepted_steps)``.  The caller guarantees
    ``still_failing(case)`` holds on entry; the result satisfies it too
    (it is either the input or a chain of accepted candidates).
    ``max_attempts`` bounds predicate evaluations, not accepted steps.
    """
    attempts = 0
    steps = 0
    size = case_size(case)
    with span("fuzz.shrink"):
        improved = True
        while improved:
            improved = False
            for cand in shrink_candidates(case):
                if attempts >= max_attempts:
                    return case, steps
                cand_size = case_size(cand)
                if cand_size >= size:
                    continue
                attempts += 1
                if still_failing(cand):
                    case, size = cand, cand_size
                    steps += 1
                    counter("fuzz.shrink_steps")
                    improved = True
                    break  # restart enumeration from the smaller case
    return case, steps


def shrink_candidates(case: FuzzCase):
    """One-step reductions of ``case``, most aggressive first."""
    try:
        program = parse_program(case.program_src, "shrink")
    except ReproError:
        return
    # 1. drop a statement (and any spec op naming it)
    for stmt in program.statements():
        smaller = _drop_statement(program, stmt.label)
        if smaller is not None:
            yield _with_program(case, smaller, drop_name=stmt.label)
    # 2. splice out a loop (substitute its var by its lower bound)
    for loop in program.all_loops():
        smaller = _remove_loop(program, loop.var)
        if smaller is not None:
            if case.kind == "complete" and case.lead == loop.var:
                continue  # the completion target must survive
            yield _with_program(case, smaller, drop_name=loop.var)
    # 3. drop one spec operation
    ops = spec_ops(case.spec)
    if case.kind == "spec" and len(ops) > 1:
        for i in range(len(ops)):
            kept = ops[:i] + ops[i + 1:]
            yield case.with_(spec="; ".join(kept))
    # 4. weaken factors/offsets toward +/-1 (or 2 for scale)
    for i, op in enumerate(ops):
        for weaker in _weaken_op(op):
            yield case.with_(spec="; ".join(ops[:i] + [weaker] + ops[i + 1:]))
    # 5. shrink parameters (jump to the floor first, then by one)
    for name, value in case.params:
        for smaller_v in dict.fromkeys((_MIN_N, value - 1)):
            if _MIN_N <= smaller_v < value:
                params = tuple(
                    (k, smaller_v if k == name else v) for k, v in case.params
                )
                yield case.with_(params=params)


def _weaken_op(op: str):
    """Variants of one spec op with a smaller integer argument: the one
    its catalogue record names, moved to its floor."""
    try:
        kind, args = parse_part(op)
    except ReproError:
        return
    if kind.weaken is not None:
        slot, floor = kind.weaken
        if abs(args[slot]) > floor:
            weaker = floor if args[slot] > 0 else -floor
            yield kind.render(*args[:slot], weaker, *args[slot + 1:])


def _with_program(case: FuzzCase, program: Program, drop_name: str) -> FuzzCase:
    """Rebuild the case around a reduced program, discarding spec ops
    that mention the removed loop/statement name."""
    kept = [
        op for op in spec_ops(case.spec)
        if drop_name not in _WORD.findall(op)
    ]
    return case.with_(
        program_src=program_to_str(program),
        spec="; ".join(kept),
    )


def _drop_statement(program: Program, label: str) -> Program | None:
    """The program without statement ``label`` (empty loops pruned);
    ``None`` if nothing would remain."""

    def walk(node: Node) -> Node | None:
        if isinstance(node, Statement):
            return None if node.label == label else node
        assert isinstance(node, Loop)
        body = [w for w in (walk(c) for c in node.body) if w is not None]
        if not body:
            return None
        return node.with_body(tuple(body))

    body = [w for w in (walk(c) for c in program.body) if w is not None]
    if not body or not any(True for c in body for _ in c.statements()):
        return None
    return program.with_body(tuple(body), name=program.name)


def _remove_loop(program: Program, loop_var: str) -> Program | None:
    """Splice out the loop binding ``loop_var``: its children replace it
    in the parent body with ``loop_var`` substituted by the loop's lower
    bound.  ``None`` when the bound is not a single affine expression
    (hull bounds from generated code) or substitution is not possible."""

    def walk(node: Node) -> list[Node] | None:
        if isinstance(node, Statement):
            return [node]
        assert isinstance(node, Loop)
        new_body: list[Node] = []
        for c in node.body:
            w = walk(c)
            if w is None:
                return None
            new_body.extend(w)
        if node.var != loop_var:
            return [node.with_body(tuple(new_body))]
        try:
            lo = affine_to_expr(node.lower.single_affine())
            return [child.substituted({loop_var: lo}) for child in new_body]
        except ReproError:
            return None

    out: list[Node] = []
    for c in program.body:
        w = walk(c)
        if w is None:
            return None
        out.extend(w)
    if not out or not any(True for c in out for _ in c.statements()):
        return None
    # a program whose top level is bare statements is representable, but
    # the dependence machinery expects at least one loop somewhere
    if not any(isinstance(n, Loop) for n in out):
        return None
    return program.with_body(tuple(out), name=program.name)
