"""Static cost model: rank *legal* schedules without timing them.

Scoring a candidate is cheap relative to measuring it — code is
generated once and modelled at small *model* parameter sizes, never at
the user's real sizes, and not one value is computed per candidate —
but it still captures the effects the measured backends reward:

* **locality** — the hit rate, at ``CAPACITY_LINES``, of an ideal
  (fully associative) LRU cache replaying the generated program's
  address stream.  :func:`repro.interp.cache.program_addresses` walks
  the generated code for that stream without running it, and
  :func:`repro.analysis.locality.lru_hit_rate` counts the hits in O(n).
  The stream is the one the reference interpreter's trace would give,
  element for element.  Values need no model run per candidate:
  Theorem 2 says a legal schedule executes the same instances on the
  same values, only in a new order, so a value-level failure is the
  context program's, and that program is run once per (context, model
  size).  Symbolically certified candidates (``tune --symbolic``) are
  not covered by Theorem 2 and keep one interpreter run each;
* **parallelism / vectorizability** — DOALL verdicts from
  :func:`repro.analysis.parallel.parallel_loops` on the candidate's
  matrix, and the number of innermost loops
  :func:`repro.backend.vectorize.plan_vector_loop` actually turns into
  NumPy slice assignments when the program is lowered with
  ``vectorize=True`` (counted by the lowering itself).

* **tile footprint** — an *analytic* working-set estimate at the
  user's **real** parameter sizes (:func:`footprint_lines`): the reuse
  profile above runs at model sizes where every schedule's working set
  fits any real cache, so it cannot see why blocking pays at N=1024 but
  not N=256.  The footprint term can — it is the one term evaluated at
  real scale.

The combined score is dominated by locality, with vectorized and DOALL
loop fractions and the footprint term as tie-breakers; weights are
module constants so the benchmarks can ablate them.  ``score_candidate``
must only ever be called on candidates that already passed the
Theorem-2 legality test — code generation re-asserts legality, so an
illegal candidate raises before anything about it is modelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.analysis.locality import lru_hit_rate
from repro.analysis.parallel import parallel_loops
from repro.backend.lower import lower_program
from repro.codegen.generate import generate_code
from repro.interp.cache import program_addresses
from repro.interp.executor import execute
from repro.ir.ast import Guard, Loop, Node, Program, Statement
from repro.ir.expr import ArrayRef
from repro.obs import counter, event, span
from repro.tune.space import Candidate, Context
from repro.util.errors import ReproError

__all__ = [
    "CostReport", "score_candidate", "model_params_for", "candidate_model_params",
    "realize", "footprint_lines",
]


def realize(candidate: Candidate, *, require_legal: bool = True) -> Program:
    """The candidate's generated (and so simplified) program.

    ``generate_code`` re-asserts Theorem-2 legality, so this never
    executes an unchecked schedule — ``require_legal=False`` is reserved
    for candidates the fractal symbolic oracle has certified instead
    (docs/SYMBOLIC.md).
    """
    ctx = candidate.context
    return generate_code(
        ctx.program, candidate.matrix, ctx.deps, require_legal=require_legal
    ).program


#: Default per-parameter size for the model execution; large enough for
#: the reuse profile to separate loop orders, small enough to score
#: dozens of candidates per second.  Calibrated together with
#: CAPACITY_LINES: the model working set must *exceed* the model cache,
#: or every loop order ties at a perfect hit rate.
MODEL_PARAM = 16

#: Ideal-LRU capacity (in cache lines) the locality score is taken at —
#: deliberately a fraction of the MODEL_PARAM working set so reuse
#: order, not footprint, decides the score.
CAPACITY_LINES = 16

#: Model-size ceiling for strip-mined candidates: MODEL_PARAM would make
#: every tile loop a singleton (a 16-wide tile covers all of N=16), so
#: tiled contexts are modelled at two tiles' worth of iterations, capped
#: to keep the trace volume scorable (a tiled model trace at 32 is
#: already ~8x the untiled one).
TILED_MODEL_CAP = 32

#: Score weights: locality leads; vectorization, DOALL and the
#: real-size footprint term break ties.
W_LOCALITY = 1.0
W_VECTORIZED = 0.15
W_DOALL = 0.05
W_FOOTPRINT = 0.2

#: Cache capacity (64-byte lines) the footprint term scores against —
#: roughly an L1d of doubles.  A window footprint far above this means
#: the inner loops cycle data out of cache between reuses.
FOOTPRINT_CAP_LINES = 512

#: Doubles per cache line for the footprint estimate.
LINE_DOUBLES = 8

#: Real-size default when the caller binds no parameter value.
FOOTPRINT_PARAM_DEFAULT = 96


@dataclass(frozen=True)
class CostReport:
    """Features and combined score of one legal candidate."""

    score: float
    locality: float
    vectorized_loops: int
    fallback_loops: int
    doall_loops: int
    total_loops: int
    instances: int
    footprint_lines: float = -1.0  # -1 when the estimate was unavailable

    def features(self) -> dict:
        return {
            "score": self.score,
            "locality": self.locality,
            "vectorized_loops": self.vectorized_loops,
            "fallback_loops": self.fallback_loops,
            "doall_loops": self.doall_loops,
            "total_loops": self.total_loops,
            "instances": self.instances,
            "footprint_lines": self.footprint_lines,
        }


def footprint_lines(
    program: Program, params: Mapping[str, int]
) -> float | None:
    """Estimated working set, in cache lines, of the innermost two loop
    levels of the busiest nest, at the given (real) parameter sizes.

    For each innermost loop, the estimate takes the window of the
    deepest two loop levels and counts the distinct elements each array
    reference touches while the window runs (product of the window
    loops' trip counts the reference's subscripts depend on), with outer
    loop variables frozen at their midpoints.  References whose last
    subscript varies with the window scan lines contiguously and are
    charged ``elements / LINE_DOUBLES``; others are charged a full line
    per element.  The program-level figure is the worst window — the
    nest that evicts its own reuse first.  Returns ``None`` when some
    bound cannot be evaluated numerically.
    """

    def trip_count(loop: Loop, env: dict[str, int]) -> int:
        lo = loop.lower.eval(env)
        hi = loop.upper.eval(env)
        if loop.step > 0:
            return max(0, (hi - lo) // loop.step + 1)
        return max(0, (lo - hi) // -loop.step + 1)

    def window_lines(chain: list[tuple[Loop, int]], body: tuple[Node, ...]) -> float:
        window = chain[-2:]
        wvars = {loop.var for loop, _ in window}
        refs: dict[tuple, tuple[ArrayRef, int]] = {}
        elements = {loop.var: count for loop, count in window}

        def collect(nodes) -> None:
            for node in nodes:
                if isinstance(node, Statement):
                    seen = list(node.reads())
                    if isinstance(node.lhs, ArrayRef):
                        seen.append(node.lhs)
                    for r in seen:
                        key = (r.array, tuple(str(s) for s in r.subscripts))
                        if key in refs:
                            continue
                        n = 1
                        deps = frozenset()
                        for s in r.subscripts:
                            deps |= s.variables()
                        for v in wvars & deps:
                            n *= elements[v]
                        refs[key] = (r, n)
                elif isinstance(node, Guard):
                    collect(node.body)

        collect(body)
        total = 0.0
        for r, n in refs.values():
            last_vars = r.subscripts[-1].variables() if r.subscripts else frozenset()
            if last_vars & wvars:
                total += n / LINE_DOUBLES
            else:
                total += float(n)
        return total

    worst = 0.0

    def walk(nodes, env: dict[str, int], chain: list[tuple[Loop, int]]) -> None:
        nonlocal worst
        for node in nodes:
            if isinstance(node, Loop):
                count = trip_count(node, env)
                inner = dict(env)
                lo = node.lower.eval(env)
                hi = node.upper.eval(env)
                inner[node.var] = (lo + hi) // 2
                sub_loops = any(isinstance(c, Loop) for c in node.body) or any(
                    isinstance(c, Guard) and any(isinstance(g, Loop) for g in c.body)
                    for c in node.body
                )
                if not sub_loops and count > 0:
                    worst = max(
                        worst, window_lines(chain + [(node, count)], node.body)
                    )
                walk(node.body, inner, chain + [(node, count)])
            elif isinstance(node, Guard):
                walk(node.body, env, chain)

    try:
        walk(program.body, dict(params), [])
    except (ReproError, KeyError, ZeroDivisionError, OverflowError):
        return None
    return worst


def model_params_for(
    program_params: tuple[str, ...] | list[str],
    params: Mapping[str, int] | None = None,
    *,
    cap: int = MODEL_PARAM,
) -> dict[str, int]:
    """Model-execution sizes: the user's binding clamped to ``cap`` (the
    cost model only needs the reuse *shape*, not the real volume)."""
    params = dict(params or {})
    return {p: min(int(params.get(p, cap)), cap) for p in program_params}


def candidate_model_params(
    candidate: Candidate, params: Mapping[str, int] | None = None
) -> dict[str, int]:
    """The sizes :func:`score_candidate` models ``candidate`` at:
    ``MODEL_PARAM``, or two tiles' worth (at most ``TILED_MODEL_CAP``)
    for a strip-mined context."""
    ctx = candidate.context
    cap = MODEL_PARAM
    if ctx.tile is not None:
        cap = min(2 * ctx.tile[1], TILED_MODEL_CAP)
    return model_params_for(ctx.program.params, params, cap=cap)


def _check_values(ctx: Context, mparams: Mapping[str, int]) -> None:
    """Run the context program once per model size, untraced, and raise
    what that run raised for every candidate of the context.

    A Theorem-2-legal schedule executes the same instances on the same
    values, so a value-level failure (a division by zero, say) is the
    context's, not the candidate's; the address walk checks the rest."""
    key = tuple(sorted(mparams.items()))
    if key not in ctx.value_checks:
        try:
            execute(ctx.program, mparams)
            ctx.value_checks[key] = None
        except ReproError as exc:
            ctx.value_checks[key] = exc
    failure = ctx.value_checks[key]
    if failure is not None:
        raise failure.with_traceback(None)


def score_candidate(
    candidate: Candidate,
    params: Mapping[str, int] | None = None,
    *,
    capacity_lines: int = CAPACITY_LINES,
    realized: Program | None = None,
    require_legal: bool = True,
) -> CostReport:
    """Score a legality-checked candidate.  Raises :class:`ReproError`
    (never returns a junk score) when code generation, the address walk
    or the context's value check fails — the driver treats that as
    "candidate infeasible".

    ``realized`` lets the caller pass an already realized program so
    codegen is not repeated between scoring and measurement.
    ``require_legal=False`` is for symbolically-certified candidates
    (``tune --symbolic``) whose matrices fail the Theorem-2 gate.
    """
    ctx = candidate.context
    with span("tune.score", candidate=candidate.description):
        program = (realized if realized is not None
                   else realize(candidate, require_legal=require_legal))
        mparams = candidate_model_params(candidate, params)
        if require_legal:
            _check_values(ctx, mparams)
        else:
            # a certified schedule is outside Theorem 2: run its values
            execute(program, mparams)
        addresses, instances = program_addresses(program, mparams)
        locality = lru_hit_rate(addresses, capacity_lines)

        real_params = {
            p: int((params or {}).get(p, FOOTPRINT_PARAM_DEFAULT))
            for p in ctx.program.params
        }
        footprint = footprint_lines(program, real_params)
        if footprint is None:
            fterm = 0.0
        else:
            fterm = FOOTPRINT_CAP_LINES / (FOOTPRINT_CAP_LINES + footprint)

        marks = parallel_loops(ctx.layout, candidate.matrix, ctx.deps)
        total = max(1, len(marks))
        doall = sum(1 for m in marks if m.is_parallel)
        try:
            lowered = lower_program(program, vectorize=True)
            vectorized, fallback = lowered.vectorized_loops, lowered.fallback_loops
        except ReproError:
            # unlowerable programs still get a locality score; they will
            # lose the vectorization term and (rightly) rank lower
            counter("tune.score.lowering_failures")
            vectorized, fallback = 0, 0

        score = (
            W_LOCALITY * locality
            + W_VECTORIZED * (vectorized / total)
            + W_DOALL * (doall / total)
            + W_FOOTPRINT * fterm
        )
    counter("tune.candidates.scored")
    event(
        "tune", "accept",
        "legal candidate statically scored by the cost model",
        candidate=candidate.description,
        score=f"{score:.6f}",
        locality=f"{locality:.4f}",
        vectorized_loops=vectorized,
        doall_loops=doall,
        footprint_lines=-1.0 if footprint is None else round(footprint, 1),
    )
    return CostReport(
        score=score,
        locality=locality,
        vectorized_loops=vectorized,
        fallback_loops=fallback,
        doall_loops=doall,
        total_loops=len(marks),
        instances=instances,
        footprint_lines=-1.0 if footprint is None else footprint,
    )
