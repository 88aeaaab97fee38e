"""Dependence analysis for imperfectly nested loops (paper §3).

For every ordered pair of conflicting references (at least one a write
to the same array), the analyzer builds the affine system of §3 —
source/destination loop bounds, subscript equality, and the
per-common-loop-level precedence cases — decides integer feasibility
with the omega-lite substrate, and summarizes each feasible case as a
:class:`DepVector` of distance/direction intervals over the program's
instance-vector layout.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from repro.dependence.depvector import DepKind, DependenceMatrix, DepVector
from repro.dependence.entry import NEG_INF, POS_INF, DepEntry
from repro.instance.layout import EdgeCoord, Layout, LoopCoord
from repro.instance.vectors import symbolic_vector
from repro.ir.ast import BoundSet, Program, Statement
from repro.ir.expr import ArrayRef, VarRef
from repro.obs import counter, span
from repro.polyhedra import engine as _engine
from repro.polyhedra.affine import LinExpr
from repro.polyhedra.system import Feasibility, System
from repro.util.errors import DependenceError, PolyhedronError

__all__ = ["analyze_dependences", "AccessInfo", "statement_domain", "iter_conflicting_pairs"]

_SRC = "__s_"
_DST = "__d_"
_DELTA = "__delta"


class AccessInfo:
    """One array access of a statement: the ref plus read/write role."""

    __slots__ = ("stmt", "ref", "is_write")

    def __init__(self, stmt: Statement, ref: ArrayRef | VarRef, is_write: bool):
        self.stmt = stmt
        self.ref = ref
        self.is_write = is_write

    @property
    def array(self) -> str:
        return self.ref.array if isinstance(self.ref, ArrayRef) else self.ref.name

    def subscripts(self) -> tuple[LinExpr, ...]:
        if isinstance(self.ref, ArrayRef):
            return self.ref.affine_subscripts()
        return ()

    def __repr__(self) -> str:
        role = "W" if self.is_write else "R"
        return f"<{role} {self.ref} in {self.stmt.label}>"


def statement_accesses(program: Program) -> list[AccessInfo]:
    """All array/scalar accesses in the program, in syntactic order.

    Scalar reads are identified as right-hand-side variables that are
    neither enclosing loop variables nor parameters.
    """
    out: list[AccessInfo] = []
    params = set(program.params)
    for s in program.statements():
        loop_vars = set(program.loop_vars(s.label))
        for r in s.reads():
            out.append(AccessInfo(s, r, False))
        scalar_candidates = s.rhs.variables() - loop_vars - params
        for ref in s.reads():
            scalar_candidates -= {ref.array} if isinstance(ref, ArrayRef) else set()
        for v in sorted(scalar_candidates):
            if not _is_array_name(program, v):
                out.append(AccessInfo(s, VarRef(v), False))
        if isinstance(s.lhs, (ArrayRef, VarRef)):
            out.append(AccessInfo(s, s.lhs, True))
    return out


def _is_array_name(program: Program, name: str) -> bool:
    return any(a.name == name for a in program.arrays)


def statement_domain(program: Program, label: str, prefix: str = "") -> System:
    """The iteration-space constraints of a statement's surrounding
    loops, with loop variables optionally renamed by ``prefix``.

    Bounds may be max/min sets of ceil/floor-divided affine terms
    (:class:`~repro.ir.ast.BoundSet`) — e.g. the bounds strip-mining
    produces.  Each term translates *exactly* into a linear constraint:
    a lower term ``ceil(e/d)`` becomes ``d*v >= e`` and an upper term
    ``floor(e/d)`` becomes ``d*v <= e``, and max-lower / min-upper sets
    are conjunctions of their terms.  Hull bounds (disjunctive unions
    from code generation) stay out of scope.
    """
    rows = []
    rename: dict[str, str] = {}
    for loop in program.enclosing_loops(label):
        if loop.step != 1:
            raise DependenceError(
                f"dependence analysis requires unit steps (loop {loop.var} has {loop.step})"
            )
        if not isinstance(loop.lower, BoundSet) or not isinstance(loop.upper, BoundSet):
            raise DependenceError(
                f"loop {loop.var} has hull bounds; dependence analysis needs "
                "per-statement (BoundSet) bounds"
            )
        v = prefix + loop.var
        # v >= ceil(e/d)  <=>  d*v - e >= 0;  v <= floor(e/d)  <=>  e - d*v >= 0
        for bound, sign in ((loop.lower, -1), (loop.upper, 1)):
            for t in bound.terms:
                rows.append((False, _renamed(t.expr, rename, sign) + [(v, -sign * t.div)],
                             sign * t.expr.constant))
        rename[loop.var] = v
    return System.from_terms(rows)


def iter_conflicting_pairs(program: Program) -> Iterator[tuple[AccessInfo, AccessInfo, str]]:
    """Ordered access pairs (src, dst, kind) with at least one write on
    the same array; src is the earlier access role-wise."""
    accesses = statement_accesses(program)
    for a, b in itertools.product(accesses, repeat=2):
        if a.array != b.array:
            continue
        if not (a.is_write or b.is_write):
            continue
        if a.is_write and b.is_write:
            kind = DepKind.OUTPUT
        elif a.is_write:
            kind = DepKind.FLOW
        else:
            kind = DepKind.ANTI
        yield a, b, kind


def analyze_dependences(
    program: Program,
    *,
    layout: Layout | None = None,
    param_assumptions: System | None = None,
) -> DependenceMatrix:
    """Compute the dependence matrix of a program.

    A case the feasibility test cannot decide (``UNKNOWN``) counts as a
    dependence, its distance ranges widened soundly.
    ``param_assumptions`` may add constraints on symbolic parameters
    (e.g. ``N >= 2``).

    The result is memoized in the query engine
    (:mod:`repro.polyhedra.engine`) per distinct program *structure* —
    body, params, arrays; not the name — together with the assumptions.
    A layout is determined by the program (up to its
    ``optimize_single_edges`` switch, which is keyed).  Every call returns a fresh :class:`DependenceMatrix` the
    caller may extend; the immutable vectors are shared.  The engine's
    knobs (``cache_clear``, ``cache_disabled``, ``REPRO_FM_CACHE=0``)
    force a real analysis.
    """
    layout = layout or Layout(program)
    assume = param_assumptions or System()
    with span("dependence.analyze", program=program.name) as sp:
        eng = _engine.active()
        if eng is None:
            return _analyze(program, layout, assume)
        # the structural key, not the canonical text (repro.ir.program_key):
        # the memo is in-process only, and hashing the frozen IR costs a
        # few microseconds against 0.1-0.2 ms for a parse→print
        key = (
            program.body, program.params, program.arrays,
            layout.optimize_single_edges, assume.canonical_key(),
        )
        deps = eng.get_analysis(key)
        hit = deps is not _engine.MISS
        if hit:
            matrix = DependenceMatrix(layout, list(deps))
        else:
            matrix = _analyze(program, layout, assume)
            eng.put_analysis(key, tuple(matrix.deps))
        counter("dependence.memo_hits" if hit else "dependence.memo_misses")
        if sp is not None:
            sp.attrs["memo"] = "hit" if hit else "miss"
        return matrix


def _analyze(program: Program, layout: Layout, base_assume: System) -> DependenceMatrix:
    """The real §3 analysis behind :func:`analyze_dependences`' memo."""
    matrix = DependenceMatrix(layout)
    sides = _statement_sides(program, layout)
    frames: dict[tuple[str, str], tuple] = {}
    for src_acc, dst_acc, kind in iter_conflicting_pairs(program):
        labels = (src_acc.stmt.label, dst_acc.stmt.label)
        frame = frames.get(labels)
        if frame is None:
            frame = frames[labels] = _frame(program, layout, sides, *labels, base_assume)
        for dep in _pair_vectors(frame, src_acc, dst_acc, kind):
            matrix.add(dep)
    return matrix


def _statement_sides(program: Program, layout: Layout) -> dict[str, tuple[tuple, ...]]:
    """Per-analysis table ``label -> (src_side, dst_side)``, each side a
    statement's ``(domain, rename, vector)`` in that role: its iteration
    domain, its loop-variable rename map, and its symbolic instance
    vector over the renamed variables.  Neither depends on the partner
    statement, so each is built once per analysis."""
    sides = {}
    for stmt in program.statements():
        loop_vars = program.loop_vars(stmt.label)
        sym = symbolic_vector(layout, stmt.label)
        roles = []
        for prefix in (_SRC, _DST):
            rename = {v: prefix + v for v in loop_vars}
            roles.append((statement_domain(program, stmt.label, prefix), rename,
                          tuple(e.rename(rename) for e in sym)))
        sides[stmt.label] = tuple(roles)
    return sides


def _frame(
    program: Program, layout: Layout, sides: dict, s_label: str, d_label: str, assume: System
) -> tuple:
    """What every conflicting access pair of one ordered statement pair
    shares (cholesky: 4 statements, 61 access pairs): the renames, the
    two domains under the assumptions, the precedence cases, and per
    coordinate of ``L(dst) - L(src)`` either its constant value or the
    one-row system pinning ``Δ`` to it."""
    (s_domain, s_rename, s_vec), _ = sides[s_label]
    _, (d_domain, d_rename, d_vec) = sides[d_label]
    deltas: list[int | System] = []
    for coord, s_e, d_e in zip(layout.coords, s_vec, d_vec):
        diff = d_e - s_e
        if diff.is_constant():
            deltas.append(diff.constant)
            continue
        if isinstance(coord, EdgeCoord):  # pragma: no cover - edges are constants
            raise DependenceError("edge coordinate difference should be constant")
        deltas.append(System.from_terms(
            [(True, [(_DELTA, 1)] + _renamed(diff, {}, -1), -diff.constant)]))
    cases = list(_precedence_cases(
        program, s_label, d_label, layout.common_loop_coords(s_label, d_label)))
    domains = s_domain.conjoin(d_domain).conjoin(assume)
    return s_rename, d_rename, domains, cases, deltas


def _renamed(expr: LinExpr, rename: dict[str, str], sign: int = 1) -> list[tuple[str, int]]:
    return [(rename.get(n, n), sign * c) for n, c in expr.terms()]


def _pair_vectors(frame: tuple, src_acc: AccessInfo, dst_acc: AccessInfo, kind: str) -> list[DepVector]:
    """All dependence vectors of one conflicting access pair: build the
    §3 affine system per precedence case, decide feasibility, summarize."""
    counter("dependence.pairs_tested")
    s_rename, d_rename, domains, cases, deltas = frame
    # subscript equality (same array location)
    subs_s = src_acc.subscripts()
    subs_d = dst_acc.subscripts()
    if len(subs_s) != len(subs_d):
        raise DependenceError(
            f"rank mismatch on array {src_acc.array}: {len(subs_s)} vs {len(subs_d)}"
        )
    base = domains.conjoin(System.from_terms(
        (True, _renamed(es, s_rename) + _renamed(ed, d_rename, -1), es.constant - ed.constant)
        for es, ed in zip(subs_s, subs_d)
    ))
    if base.is_trivially_false():
        counter("dependence.pairs_pruned")
        return []

    out: list[DepVector] = []
    for level_var, case_sys in cases:
        counter("dependence.cases_tested")
        system = base.conjoin(case_sys)
        feas = system.feasible()
        if feas is Feasibility.INFEASIBLE:
            counter("dependence.cases_infeasible")
            continue
        if feas is Feasibility.UNKNOWN:
            counter("dependence.cases_unknown")
        counter("dependence.vectors")
        out.append(DepVector(
            src_acc.stmt.label, dst_acc.stmt.label, _summarize(system, deltas),
            kind, level_var, src_acc.array))
    return out


def _precedence_cases(
    program: Program, s_label: str, d_label: str, common: list[LoopCoord]
):
    """Yield (level_name, system) for each carried level, plus the
    loop-independent case when syntactic order allows it."""
    same = [(True, [(_SRC + c.var, 1), (_DST + c.var, -1)], 0) for c in common]
    for k, ck in enumerate(common):
        later = (False, [(_DST + ck.var, 1), (_SRC + ck.var, -1)], -1)
        yield ck.var, System.from_terms(same[:k] + [later])
    # loop-independent: same common iteration; requires strict syntactic order
    if s_label != d_label and program.syntactically_before(s_label, d_label):
        yield None, System.from_terms(same)


def _summarize(system: System, deltas: list) -> tuple[DepEntry, ...]:
    """Summarize ``L(dst) - L(src)`` per coordinate over the system."""
    entries: list[DepEntry] = []
    for delta in deltas:
        if isinstance(delta, int):
            entries.append(DepEntry.const(delta))
            continue
        try:
            lo, hi = system.conjoin(delta).var_range(_DELTA)
        except PolyhedronError:
            lo, hi = None, None
        entries.append(DepEntry(NEG_INF if lo is None else lo, POS_INF if hi is None else hi))
    return tuple(entries)
