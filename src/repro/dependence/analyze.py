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

from repro.util.parallel_exec import (
    capture_counters, chunk_round_robin, map_in_processes, merge_metrics, resolve_jobs,
)
from repro.dependence.depvector import DepKind, DependenceMatrix, DepVector
from repro.dependence.entry import NEG_INF, POS_INF, DepEntry
from repro.instance.layout import EdgeCoord, Layout, LoopCoord
from repro.instance.vectors import symbolic_vector
from repro.ir.ast import BoundSet, Program, Statement
from repro.ir.expr import ArrayRef, VarRef
from repro.obs import counter, span
from repro.polyhedra import engine as _engine
from repro.polyhedra.affine import LinExpr, var
from repro.polyhedra.constraint import eq, ge, le
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
    constraints = []
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
        vv = var(v)
        for term in loop.lower.terms:
            # v >= ceil(e/d)  <=>  d*v >= e  (d >= 1, integer v)
            lhs = vv if term.div == 1 else vv * term.div
            constraints.append(ge(lhs, term.expr.rename(rename)))
        for term in loop.upper.terms:
            # v <= floor(e/d)  <=>  d*v <= e
            lhs = vv if term.div == 1 else vv * term.div
            constraints.append(le(lhs, term.expr.rename(rename)))
        rename[loop.var] = v
    return System(constraints)


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
    include_unknown: bool = True,
    param_assumptions: System | None = None,
    jobs: int | None = None,
) -> DependenceMatrix:
    """Compute the dependence matrix of a program.

    ``include_unknown`` controls whether cases the feasibility test
    cannot decide are (soundly) included.  ``param_assumptions`` may add
    constraints on symbolic parameters (e.g. ``N >= 2``).

    ``jobs`` fans the statement-pair × depth case matrix out across a
    process pool (``0`` = one worker per CPU); the merge preserves pair
    order, so the result is bit-identical to the serial analysis.  Small
    programs and ``jobs=1`` stay serial.

    The result is memoized in the query engine
    (:mod:`repro.polyhedra.engine`) per distinct program *structure* —
    body, params, arrays; not the name — together with
    ``include_unknown`` and the assumptions.  ``jobs`` does not change
    the result and a layout is determined by the program (up to its
    ``optimize_single_edges`` switch, which is keyed).  Every call
    returns a fresh :class:`DependenceMatrix` the caller may extend; the
    immutable vectors are shared.  The engine's knobs (``cache_clear``,
    ``cache_disabled``, ``REPRO_FM_CACHE=0``) force a real analysis.
    """
    layout = layout or Layout(program)
    assume = param_assumptions or System()
    with span("dependence.analyze", program=program.name) as sp:
        eng = _engine.active()
        if eng is None:
            return _analyze(program, layout, assume, include_unknown, jobs)
        key = (
            program.body, program.params, program.arrays,
            layout.optimize_single_edges, include_unknown, assume.canonical_key(),
        )
        deps = eng.get_analysis(key)
        hit = deps is not _engine.MISS
        if hit:
            matrix = DependenceMatrix(layout, list(deps))
        else:
            matrix = _analyze(program, layout, assume, include_unknown, jobs)
            eng.put_analysis(key, tuple(matrix.deps))
        counter("dependence.memo_hits" if hit else "dependence.memo_misses")
        if sp is not None:
            sp.attrs["memo"] = "hit" if hit else "miss"
        return matrix


def _analyze(
    program: Program,
    layout: Layout,
    base_assume: System,
    include_unknown: bool,
    jobs: int | None,
) -> DependenceMatrix:
    """The real §3 analysis behind :func:`analyze_dependences`' memo."""
    matrix = DependenceMatrix(layout)
    pairs = list(iter_conflicting_pairs(program))
    njobs = resolve_jobs(jobs)

    if njobs > 1 and len(pairs) >= _MIN_PAIRS_FOR_POOL:
        per_pair: dict[int, list[DepVector]] = {}
        payloads = [
            (program, base_assume, include_unknown, indices)
            for indices in chunk_round_robin(len(pairs), njobs)
        ]
        for results, metrics in map_in_processes(
            _analyze_pairs_task, payloads, jobs=njobs
        ):
            merge_metrics(metrics)
            for i, vectors in results:
                per_pair[i] = vectors
        for i in range(len(pairs)):
            for dep in per_pair.get(i, ()):
                matrix.add(dep)
        return matrix

    sides = _statement_sides(program)
    for src_acc, dst_acc, kind in pairs:
        for dep in _pair_vectors(
            program, layout, sides, src_acc, dst_acc, kind, base_assume, include_unknown
        ):
            matrix.add(dep)
    return matrix


#: Below this many conflicting pairs the pool costs more than it saves.
_MIN_PAIRS_FOR_POOL = 4


def _statement_sides(program: Program) -> dict[str, tuple[tuple[System, dict[str, str]], ...]]:
    """Per-analysis table ``label -> ((src_domain, src_rename),
    (dst_domain, dst_rename))``: a statement's iteration domain and
    loop-variable rename map as the source and as the destination of a
    dependence.

    A statement takes part in many conflicting pairs (cholesky: 4
    statements, 61 pairs) and neither its domain nor its renaming
    depends on the partner, so each is built once per analysis (every
    statement writes, hence pairs at least with itself).  The table
    lives for one analysis, or one worker chunk, and is passed down.
    """
    sides = {}
    for stmt in program.statements():
        loop_vars = program.loop_vars(stmt.label)
        sides[stmt.label] = tuple(
            (statement_domain(program, stmt.label, prefix), {v: prefix + v for v in loop_vars})
            for prefix in (_SRC, _DST)
        )
    return sides


def _analyze_pairs_task(payload) -> tuple[list[tuple[int, list[DepVector]]], dict[str, int]]:
    """Process-pool task: evaluate the cases of a chunk of conflicting
    pairs, identified by index into the (deterministic) pair enumeration.

    The payload carries only picklable values (the Program, the
    assumption System, the pair indices); the worker re-derives layout,
    pair list and statement-side table, evaluates its chunk, and returns
    the dependence vectors together with its observability-counter delta.
    """
    program, base_assume, include_unknown, indices = payload
    with capture_counters() as cap:
        layout = Layout(program)
        sides = _statement_sides(program)
        pairs = list(iter_conflicting_pairs(program))
        results = []
        for i in indices:
            src_acc, dst_acc, kind = pairs[i]
            results.append(
                (
                    i,
                    _pair_vectors(
                        program, layout, sides, src_acc, dst_acc, kind, base_assume,
                        include_unknown,
                    ),
                )
            )
    return results, cap.metrics


def _pair_vectors(
    program: Program,
    layout: Layout,
    sides: dict,
    src_acc: AccessInfo,
    dst_acc: AccessInfo,
    kind: str,
    base_assume: System,
    include_unknown: bool,
) -> list[DepVector]:
    """All dependence vectors of one conflicting access pair: build the
    §3 affine system per precedence case, decide feasibility, summarize."""
    counter("dependence.pairs_tested")
    s_label = src_acc.stmt.label
    d_label = dst_acc.stmt.label
    (s_domain, s_rename), _ = sides[s_label]
    _, (d_domain, d_rename) = sides[d_label]
    base = s_domain.conjoin(d_domain).conjoin(base_assume)
    # subscript equality (same array location)
    subs_s = src_acc.subscripts()
    subs_d = dst_acc.subscripts()
    if len(subs_s) != len(subs_d):
        raise DependenceError(
            f"rank mismatch on array {src_acc.array}: {len(subs_s)} vs {len(subs_d)}"
        )
    for es, ed in zip(subs_s, subs_d):
        base = base.and_(eq(es.rename(s_rename), ed.rename(d_rename)))
    if base.is_trivially_false():
        counter("dependence.pairs_pruned")
        return []

    out: list[DepVector] = []
    common = layout.common_loop_coords(s_label, d_label)
    for case in _precedence_cases(program, s_label, d_label, common):
        if case is None:
            continue
        counter("dependence.cases_tested")
        level_var, case_sys = case
        system = base.conjoin(case_sys)
        feas = system.feasible()
        if feas is Feasibility.INFEASIBLE:
            counter("dependence.cases_infeasible")
            continue
        if feas is Feasibility.UNKNOWN:
            counter("dependence.cases_unknown")
            if not include_unknown:
                continue
            if system.find_point(clip=16) is None and _probably_empty(system):
                continue
        dep = _summarize(
            layout, s_label, d_label, s_rename, d_rename, system, kind, level_var, src_acc.array
        )
        if dep is not None:
            counter("dependence.vectors")
            out.append(dep)
    return out


def _precedence_cases(
    program: Program, s_label: str, d_label: str, common: list[LoopCoord]
):
    """Yield (level_name, constraints) for each carried level, plus the
    loop-independent case when syntactic order allows it."""
    vars_ = [c.var for c in common]
    for k, ck in enumerate(vars_):
        cs = [eq(var(_SRC + v), var(_DST + v)) for v in vars_[:k]]
        cs.append(le(var(_SRC + ck) + 1, var(_DST + ck)))
        yield ck, System(cs)
    # loop-independent: same common iteration; requires strict syntactic order
    if s_label != d_label and program.syntactically_before(s_label, d_label):
        cs = [eq(var(_SRC + v), var(_DST + v)) for v in vars_]
        yield None, System(cs)


def _summarize(
    layout: Layout,
    s_label: str,
    d_label: str,
    s_rename: dict[str, str],
    d_rename: dict[str, str],
    system: System,
    kind: str,
    level: str | None,
    array: str,
) -> DepVector | None:
    """Summarize ``L(dst) - L(src)`` per coordinate over the system."""
    s_sym = symbolic_vector(layout, s_label)
    d_sym = symbolic_vector(layout, d_label)

    entries: list[DepEntry] = []
    for i, coord in enumerate(layout.coords):
        diff = d_sym[i].rename(d_rename) - s_sym[i].rename(s_rename)
        if diff.is_constant():
            entries.append(DepEntry.const(diff.constant))
            continue
        if isinstance(coord, EdgeCoord):  # pragma: no cover - edges are constants
            raise DependenceError("edge coordinate difference should be constant")
        probe = system.and_(eq(var(_DELTA), diff))
        try:
            lo, hi = probe.var_range(_DELTA)
        except PolyhedronError:
            lo, hi = None, None
        entries.append(DepEntry(NEG_INF if lo is None else lo, POS_INF if hi is None else hi))
    return DepVector(s_label, d_label, tuple(entries), kind, level, array)


def _probably_empty(system: System) -> bool:
    """Last-resort emptiness heuristic for UNKNOWN systems: sample a few
    larger clip boxes.  Returning False keeps the dependence (sound)."""
    return system.find_point(clip=48) is None
