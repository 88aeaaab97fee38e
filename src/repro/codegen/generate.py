"""Code generation from a legal transformation matrix (paper §5).

The pipeline:

1. legality + structure recovery (Def. 6, Fig. 6),
2. per-statement affine maps (Def. 7),
3. augmentation with extra innermost loops for rank-deficient
   statements (Fig. 7),
4. per-statement scanning polyhedra by Fourier–Motzkin projection of
   ``{new = map(old)} ∪ old-domain`` onto the new loop variables,
5. shared-loop bounds as hulls over the statements under each loop,
   with per-statement guard conditions for narrower ranges (this is
   what produces the paper's ``if (I == 0) then`` around statement S1
   in the §5.4 example),
6. subscript rewriting through the inverted non-singular per-statement
   matrix ``N_S`` (Def. 8),
7. the §5.5 cleanup (:func:`~repro.codegen.simplify.simplify_program`)
   with no parameter assumption, so the output holds for every
   parameter value.

The output carries its :class:`~repro.ir.ast.Derivation` (source
layout, M, D and the augmented rows), from which lowering reads DOALL
as M·D (§7) without analysing the generated code again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codegen.augment import augment_rows, project_dep
from repro.codegen.per_statement import PerStatement, per_statement_transformation
from repro.codegen.simplify import simplify_program
from repro.dependence.analyze import analyze_dependences, statement_domain
from repro.dependence.depvector import DependenceMatrix
from repro.instance.layout import Layout
from repro.ir.ast import (
    BoundSet, Derivation, Guard, HullBound, Loop, Node, Program, Statement,
    simplify_hull,
)
from repro.ir.expr import Expr, affine_to_expr
from repro.legality.check import LegalityReport, assert_legal, check_legality
from repro.linalg.intmat import IntMatrix
from repro.obs import counter, span, timed
from repro.polyhedra.affine import LinExpr, var
from repro.polyhedra.bounds import Bound, LoopBounds, extract_bounds
from repro.polyhedra.constraint import Constraint, ge0
from repro.polyhedra.system import System
from repro.util.errors import CodegenError, PolyhedronError

__all__ = ["GeneratedProgram", "StatementPlan", "generate_code"]

_OLD = "__o_"


@dataclass
class StatementPlan:
    """Everything code generation derived for one statement."""

    label: str
    per_statement: PerStatement
    extra_rows: list[tuple[int, ...]]
    loop_names: list[str]          # shared new-loop names, outside-in
    extra_names: list[str]         # augmented innermost loop names
    nonsingular: IntMatrix | None  # N_S (Def. 8) over the kept rows
    kept_rows: list[int]           # indices (into names) of N_S rows
    bounds: list[LoopBounds]       # per level, shared then extra
    guards: list[Constraint]       # residual conditions at shared levels
    rewrite: dict[str, Expr]       # old loop var -> expression in new vars
    rewrite_affine: dict[str, LinExpr] = field(default_factory=dict)
    lattice: tuple | None = None   # (H, U, offsets, kept names) when |det N_S| > 1
    lattice_conditions: tuple = () # divisibility ExprConditions
    exact: bool = True


@dataclass
class GeneratedProgram:
    """Result of :func:`generate_code`."""

    program: Program
    report: LegalityReport
    plans: dict[str, StatementPlan] = field(default_factory=dict)
    exact: bool = True

    def plan(self, label: str) -> StatementPlan:
        return self.plans[label]

    def env_map(self):
        """Callable mapping a transformed statement instance's loop
        environment back to its source iteration values (outside-in) —
        the inverse per-statement transformation, used by the
        equivalence oracles."""

        def f(label: str, env) -> tuple[int, ...]:
            plan = self.plans[label]
            if plan.lattice is None:
                return tuple(
                    plan.rewrite_affine[v].eval(env) for v in plan.per_statement.old_vars
                )
            return _lattice_env_map(plan, env)

        return f


@timed(
    "codegen.generate",
    attr_fn=lambda program, *a, **kw: {"program": program.name},
    hist="codegen.generate_ns",
)
def generate_code(
    program: Program,
    matrix: IntMatrix,
    deps: DependenceMatrix | None = None,
    *,
    name: str | None = None,
    require_legal: bool = True,
) -> GeneratedProgram:
    """Generate the transformed program for a legal matrix.

    ``require_legal=False`` skips the Definition-6 dependence test (the
    Figure-5 block structure is still required) and generates code for a
    transformation *known or suspected to be illegal*.  The result is in
    general semantically wrong; the differential fuzzer uses this to
    confirm that the equivalence oracles catch what the legality test
    rejects (the second side of the Theorem-2 contract).

    The last pass is the §5.5 cleanup, always: it prunes dominated bound
    terms and drops guards the enclosing loops already imply.  That is
    not cosmetic — an un-pruned guard blocks the vectorizer, so raw
    output would penalize every transformed schedule against the
    guard-free source.  It assumes nothing about the parameters, so the
    code is valid for every value, ``N = 0`` included, and the CLI,
    daemon, tuner and fuzzer all emit and check this one program.
    """
    layout = Layout(program)
    if deps is None:
        deps = analyze_dependences(program)
    if require_legal:
        report = assert_legal(layout, matrix, deps)
    else:
        report = check_legality(layout, matrix, deps)
        if report.structure is None:
            raise CodegenError(
                "matrix lacks the Figure-5 block structure; cannot generate code "
                "even unchecked"
            )
        counter("codegen.unchecked_generations")
    structure = report.structure
    assert structure is not None and structure.new_layout is not None
    skeleton = structure.skeleton
    new_layout = structure.new_layout
    assert skeleton is not None

    # ---- 1. name every new loop node -------------------------------------
    taken = set(program.params)
    name_of: dict[tuple[int, ...], str] = {}
    old_loop_cols = {
        layout.index(c): c.var for c in layout.loop_coords()
    }
    for coord in new_layout.loop_coords():
        pos = new_layout.index(coord)
        row = matrix[pos]
        nz = [(j, v) for j, v in enumerate(row) if v != 0]
        if len(nz) == 1 and nz[0][1] == 1 and nz[0][0] in old_loop_cols:
            candidate = old_loop_cols[nz[0][0]]
        else:
            candidate = coord.var
        chosen = candidate
        k = 2
        while chosen in taken:
            chosen = f"{candidate}{k}"
            k += 1
        taken.add(chosen)
        name_of[coord.path] = chosen

    # ---- 2. per-statement plans ------------------------------------------
    plans: dict[str, StatementPlan] = {}
    all_exact = True
    for stmt in program.statements():
        label = stmt.label
        ps = per_statement_transformation(layout, matrix, structure, label)
        k = len(ps.old_vars)
        old_positions = layout.surrounding_loop_positions(label)
        unsat = [
            project_dep(d.entries, old_positions) for d in report.unsatisfied(label)
        ]
        extra = augment_rows(ps.linear, unsat) if k else []
        if extra:
            counter("codegen.augment_rows", len(extra))

        shared_paths = [c.path for c in new_layout.surrounding_loop_coords(label)]
        loop_names = [name_of[p] for p in shared_paths]
        extra_names = []
        for row in extra:
            h = row.index(1)
            base = f"{ps.old_vars[h]}2"
            cand, k2 = base, 2
            while cand in taken:
                cand = f"{base}_{k2}"
                k2 += 1
            taken.add(cand)
            extra_names.append(cand)

        names = loop_names + extra_names
        exprs = list(ps.exprs) + [
            LinExpr({ps.old_vars[row.index(1)]: 1}) for row in extra
        ]
        rows_linear = [[e[v] for v in ps.old_vars] for e in exprs]
        offsets = [e.constant for e in exprs]

        # N_S: first maximal independent subset of rows, top-down (Def. 8)
        kept: list[int] = []
        current = IntMatrix.zeros(0, k) if k else IntMatrix([])
        for i, r in enumerate(rows_linear):
            if k == 0:
                break
            cand = current.with_row(r) if kept else IntMatrix([r])
            if cand.rank() > len(kept):
                current = cand
                kept.append(i)
            if len(kept) == k:
                break
        if k and len(kept) != k:
            raise CodegenError(
                f"per-statement transformation of {label} has rank {len(kept)} < {k} "
                "even after augmentation"
            )
        nonsingular = current if k else None
        rewrite: dict[str, Expr] = {}
        rewrite_affine: dict[str, LinExpr] = {}
        lattice = None
        lattice_conditions: tuple = ()
        if k:
            det = nonsingular.det()
            if det in (1, -1):
                ninv = nonsingular.inverse_int()
                # x = N^{-1} (y_kept - c_kept)
                for i, old_v in enumerate(ps.old_vars):
                    expr = LinExpr({}, 0)
                    for j, row_idx in enumerate(kept):
                        coef = ninv[i, j]
                        if coef:
                            expr = expr + coef * (var(names[row_idx]) - offsets[row_idx])
                    rewrite[old_v] = affine_to_expr(expr)
                    rewrite_affine[old_v] = expr
            else:
                # Non-unimodular N_S (e.g. loop scaling): the image is a
                # proper sublattice.  Column HNF N_S U = H gives exact
                # back-substitution x = U z with z solved by forward
                # substitution through H, plus one divisibility guard
                # per non-unit pivot (the Li-Pingali [10] treatment).
                rewrite, lattice_conditions, lattice = _lattice_rewrite(
                    nonsingular, [names[i] for i in kept],
                    [offsets[i] for i in kept], ps.old_vars,
                )

        # scanning polyhedron over the new names
        domain = statement_domain(program, label, _OLD)
        old_rename = {v: _OLD + v for v in ps.old_vars}
        combined = domain.conjoin(System.from_terms(
            (True, [(nm, 1)] + [(old_rename.get(n, n), -c) for n, c in e.terms()], -e.constant)
            for nm, e in zip(names, exprs)
        ))
        with span("codegen.project", stmt=label):
            scan, exact = combined.project_onto(list(program.params) + names)
        counter("codegen.statements_planned")
        if not exact:
            counter("codegen.inexact_projections")
        all_exact = all_exact and exact
        try:
            bounds = extract_bounds(scan, names, program.params)
        except PolyhedronError as exc:
            raise CodegenError(f"cannot bound the new loops of {label}: {exc}") from exc

        plans[label] = StatementPlan(
            label=label,
            per_statement=ps,
            extra_rows=extra,
            loop_names=loop_names,
            extra_names=extra_names,
            nonsingular=nonsingular,
            kept_rows=kept,
            bounds=bounds,
            guards=[],
            rewrite=rewrite,
            rewrite_affine=rewrite_affine,
            lattice=lattice,
            lattice_conditions=lattice_conditions,
            exact=exact,
        )

    # ---- 3. emit the new AST ----------------------------------------------
    def emit(node: Node, path: tuple[int, ...], depth: int) -> Node:
        counter("codegen.ast_nodes")
        if isinstance(node, Statement):
            plan = plans[node.label]
            inner: Node = node.substituted(plan.rewrite)
            n_shared = len(plan.loop_names)
            conds = _residual_guards(plan, plans, skeleton, name_of, depth_of_stmt=n_shared)
            all_conds = tuple(plan.lattice_conditions) + tuple(conds)
            # a condition mentioning an augmented loop variable is only
            # evaluable inside that loop; the rest hoist above them
            extra = set(plan.extra_names)
            inner_conds = tuple(
                c for c in all_conds if set(c.expr.variables()) & extra
            )
            outer_conds = tuple(c for c in all_conds if c not in inner_conds)
            if all_conds:
                counter("codegen.guards_emitted", len(all_conds))
            if inner_conds:
                inner = Guard(inner_conds, (inner,))
            # augmented innermost loops, inside-out
            for lvl in reversed(range(n_shared, n_shared + len(plan.extra_names))):
                lb = plan.bounds[lvl]
                inner = Loop(
                    plan.extra_names[lvl - n_shared],
                    BoundSet(lb.lowers, True),
                    BoundSet(lb.uppers, False),
                    (inner,),
                )
            if outer_conds:
                inner = Guard(outer_conds, (inner,))
            return inner
        assert isinstance(node, Loop)
        under = [s.label for s in node.statements()]
        lowers = []
        uppers = []
        seen = set()
        for lab in under:
            plan = plans[lab]
            lb = plan.bounds[depth]
            key = (lb.lowers, lb.uppers)
            if key in seen:
                continue
            seen.add(key)
            if not lb.lowers or not lb.uppers:
                raise CodegenError(f"new loop for {lab} at level {depth} is unbounded")
            lowers.append(BoundSet(lb.lowers, True))
            uppers.append(BoundSet(lb.uppers, False))
        body = tuple(
            emit(child, path + (j,), depth + 1) for j, child in enumerate(node.body)
        )
        return Loop(
            name_of[path],
            simplify_hull(HullBound(tuple(lowers), True)),
            simplify_hull(HullBound(tuple(uppers), False)),
            body,
        )

    with span("codegen.emit"):
        new_body = tuple(emit(child, (j,), 0) for j, child in enumerate(skeleton.body))
    raw = Program(
        new_body, program.params, program.arrays, name or (program.name + "_gen")
    )
    with span("codegen.simplify"):
        out = raw.with_body(simplify_program(raw).body).derived(Derivation(
            layout, matrix, deps,
            {label: tuple(plan.extra_rows) for label, plan in plans.items()},
        ))
    return GeneratedProgram(out, report, plans, all_exact)


def _residual_guards(
    plan: StatementPlan,
    plans: dict[str, StatementPlan],
    skeleton: Program,
    name_of: dict[tuple[int, ...], str],
    depth_of_stmt: int,
) -> list[Constraint]:
    """Guard conditions for a statement: its own per-level bounds that
    the shared (hull) loop does not already enforce.

    A bound term is enforced by the loop iff every statement sharing the
    loop has that same term at that level; otherwise the hull is wider
    and the term becomes a guard condition.
    """
    conds: list[Constraint] = []
    # which statements share each of this statement's loops?
    sk_layout_paths = {s.label: skeleton._find_path(s.label) for s in skeleton.statements()}

    my_path = sk_layout_paths[plan.label]
    my_loops = [n for n in my_path if isinstance(n, Loop)]
    for lvl in range(depth_of_stmt):
        loop_node = my_loops[lvl]
        sharing = [s.label for s in loop_node.statements()]
        lb = plan.bounds[lvl]
        vname = plan.loop_names[lvl]
        for term in lb.lowers:
            if _term_shared(term, lvl, sharing, plans, lower=True):
                continue
            # v >= ceil(expr/div)  <=>  div*v - expr >= 0
            conds.append(ge0(term.div * var(vname) - term.expr))
        for term in lb.uppers:
            if _term_shared(term, lvl, sharing, plans, lower=False):
                continue
            conds.append(ge0(term.expr - term.div * var(vname)))
    return _dedup_constraints(conds)


def _term_shared(
    term: Bound, lvl: int, sharing: list[str], plans: dict[str, StatementPlan], lower: bool
) -> bool:
    for lab in sharing:
        other = plans[lab].bounds[lvl]
        terms = other.lowers if lower else other.uppers
        if term not in terms:
            return False
    return True


def _dedup_constraints(conds: list[Constraint]) -> list[Constraint]:
    out: list[Constraint] = []
    for c in conds:
        if c.is_trivially_true():
            continue
        if c not in out:
            out.append(c)
    return out


def _lattice_rewrite(nonsingular, kept_names, kept_offsets, old_vars):
    """Back-substitution and divisibility conditions for a
    non-unimodular per-statement matrix.

    Returns ``(rewrite, conditions, lattice)`` where ``rewrite`` maps
    each old loop variable to an expression tree over the kept new
    variables (containing exact integer divisions), ``conditions`` are
    the :class:`~repro.ir.ast.ExprCondition` divisibility guards, and
    ``lattice = (H, U, offsets, kept_names)`` supports the inverse
    environment map.
    """
    from repro.ir.ast import ExprCondition
    from repro.ir.expr import BinOp, IntLit, VarRef
    from repro.linalg.hermite import hnf_column

    h, u = hnf_column(nonsingular)
    k = len(old_vars)
    # z_j solved top-down: z_j = (y_j - c_j - sum_{i<j} H[j,i] z_i) / H[j,j]
    z_exprs: list = []
    conditions: list = []
    for j in range(k):
        residual: object = VarRef(kept_names[j])
        if kept_offsets[j]:
            residual = BinOp("-", residual, IntLit(kept_offsets[j]))
        for i in range(j):
            coef = h[j, i]
            if coef:
                residual = BinOp("-", residual, BinOp("*", IntLit(coef), z_exprs[i]))
        piv = h[j, j]
        if piv == 0:  # pragma: no cover - nonsingular guarantees pivots
            raise CodegenError("zero pivot in HNF of a nonsingular matrix")
        if piv != 1:
            conditions.append(
                ExprCondition(BinOp("%", residual, IntLit(piv)), "==")
            )
            z_exprs.append(BinOp("/", residual, IntLit(piv)))
        else:
            z_exprs.append(residual)

    rewrite: dict = {}
    for i, old_v in enumerate(old_vars):
        expr: object = IntLit(0)
        for j in range(k):
            coef = u[i, j]
            if coef:
                term = BinOp("*", IntLit(coef), z_exprs[j]) if coef != 1 else z_exprs[j]
                expr = term if (isinstance(expr, IntLit) and expr.value == 0) else BinOp("+", expr, term)
        rewrite[old_v] = expr

    lattice = (h, u, tuple(kept_offsets), tuple(kept_names))
    return rewrite, tuple(conditions), lattice


def _lattice_env_map(plan, env) -> tuple[int, ...]:
    """Exact inverse of a non-unimodular per-statement map."""
    h, u, offsets, kept_names = plan.lattice
    k = len(kept_names)
    z = [0] * k
    for j in range(k):
        residual = int(env[kept_names[j]]) - offsets[j]
        for i in range(j):
            residual -= h[j, i] * z[i]
        piv = h[j, j]
        q, rem = divmod(residual, piv)
        if rem:
            raise CodegenError("environment not on the image lattice")
        z[j] = q
    return tuple(
        sum(u[i, j] * z[j] for j in range(k)) for i in range(len(plan.per_statement.old_vars))
    )
