"""Candidate enumeration for the schedule autotuner.

The search space is the transformation catalogue
(:data:`repro.transform.spec.CATALOGUE`) read at its tuner sites, so
every candidate is *expressible* by construction — its description is a
spec ``parse_schedule`` accepts — and its legality is decidable by the
Theorem-2 projection test before any code is generated or executed:

* **loop orders** — for every loop coordinate, the partial
  transformation "scan this coordinate outermost" completed to a full
  matrix by :func:`repro.completion.complete_transformation` (the §6
  procedure; legal by construction, still audited);
* **steps** — each linear kind at its sites over the source program:
  interchanges and skews of nested loop pairs (skew factors seeded from
  the constants of the dependence matrix), reversals, §4.2 statement
  reorderings;
* **variants** — each legal ``distribute``/``fuse`` rewrite becomes a
  new search *context* (its own program, layout and dependence matrix)
  whose loop orders are enumerated like the original's; ``tile``
  contexts are added per ladder size when tiling is asked for.

Candidates are deduplicated by canonical form: the pair (canonical
program text, matrix rows).  Two different derivations of the same
schedule — e.g. ``permute(I,J); permute(I,J)`` and the identity — keep
only the first representative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from repro.completion.complete import complete_transformation
from repro.dependence.analyze import analyze_dependences
from repro.dependence.depvector import DependenceMatrix
from repro.instance.layout import Layout, LoopCoord
from repro.ir.ast import Program
from repro.ir.printer import program_to_str
from repro.linalg.intmat import IntMatrix
from repro.obs import counter, event, span
from repro.transform.distribution import _loop_at
from repro.transform.spec import CATALOGUE, KINDS, Kind, Rewritten, skew_factors_from_deps
from repro.transform.tiling import TILE_LADDER, loop_path_by_var, loop_paths
from repro.util.errors import CompletionError, ReproError

__all__ = [
    "Context", "Candidate", "make_context", "base_contexts",
    "tiled_contexts", "identity_candidate", "lead_candidate",
    "lead_candidates", "blocked_lead_candidates", "elementary_candidates",
    "enumerate_candidates", "compose_candidate", "dedupe",
    "skew_factors_from_deps", "loop_paths", "cap_candidates",
    "resolve_max_candidates", "exposes_wavefront", "wavefront_candidates",
]

#: Cap on distribution/fusion variant contexts per enumeration.
MAX_STRUCTURAL_VARIANTS = 4

#: Cap on strip-mined (tiled) variant contexts per enumeration — one
#: context per (loop, tile size) pair survives up to this bound.
MAX_TILED_VARIANTS = 8

#: Default overall candidate cap per enumeration level; overridable by
#: ``--max-candidates``.  Tiling multiplies the context count by the
#: ladder, so an unbounded enumeration could silently blow up tune
#: wall-clock.
DEFAULT_MAX_CANDIDATES = 96


def resolve_max_candidates(max_candidates: int | None = None) -> int:
    """The effective candidate cap: the explicit argument, else the
    default."""
    if max_candidates is None:
        return DEFAULT_MAX_CANDIDATES
    return max(1, int(max_candidates))


def _stage(stage: str) -> list[Kind]:
    """The catalogue's kinds the tuner tries at ``stage``, in order."""
    return [k for k in CATALOGUE if k.tuner == stage]


def cap_candidates(candidates: list["Candidate"], cap: int, stage: str) -> list["Candidate"]:
    """Truncate an (ordered, deduplicated) candidate list to ``cap``,
    emitting the ``kind=tune, verdict=truncated`` decision event with the
    dropped count so the blowup is log-visible (``repro explain``)."""
    if len(candidates) <= cap:
        return candidates
    dropped = len(candidates) - cap
    counter("tune.candidates.truncated", dropped)
    event(
        "tune", "truncated",
        f"candidate cap reached at the {stage} stage; raise --max-candidates "
        "to search the dropped tail",
        stage=stage, cap=cap, enumerated=len(candidates), dropped=dropped,
    )
    return candidates[:cap]


@dataclass(eq=False)
class Context:
    """One program the tuner searches schedules *of*: the original, or a
    semantically equivalent structural variant (distribution, fusion,
    strip-mining)."""

    program: Program
    layout: Layout
    deps: DependenceMatrix
    origin: tuple[str, ...] = ()  # structural steps that produced it
    tile: tuple[str, int] | None = None  # (tile loop var, size) for strip-mined variants
    #: model parameters -> what running ``program`` there raised (None:
    #: nothing); filled by the cost model, one interpreter run per size
    value_checks: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def is_tiled(self) -> bool:
        return self.tile is not None

    @cached_property
    def text(self) -> str:
        """The program's printed text, once per context: half of every
        candidate's dedup identity."""
        return program_to_str(self.program)


@dataclass(eq=False)
class Candidate:
    """A schedule: a square transformation matrix over one context."""

    context: Context
    matrix: IntMatrix
    steps: tuple[str, ...] = ()
    kind: str = "identity"
    lead: str | None = None  # set for completion-derived loop orders

    @property
    def description(self) -> str:
        parts = self.context.origin + self.steps
        return "; ".join(parts) if parts else "default order"

    def canonical_key(self) -> tuple:
        """Dedup identity: program text × matrix rows."""
        return (self.context.text, self.matrix.rows())

    def __repr__(self) -> str:
        return f"Candidate({self.description!r}, kind={self.kind})"


def make_context(
    program: Program,
    deps: DependenceMatrix | None = None,
    *,
    layout: Layout | None = None,
    origin: tuple[str, ...] = (),
    tile: tuple[str, int] | None = None,
) -> Context:
    layout = layout or Layout(program)
    if deps is None:
        deps = analyze_dependences(program, layout=layout)
    return Context(program, layout, deps, origin, tile)


# -- structural variants -----------------------------------------------------


def base_contexts(
    program: Program,
    deps: DependenceMatrix | None = None,
    *,
    layout: Layout | None = None,
    max_variants: int = MAX_STRUCTURAL_VARIANTS,
) -> list[Context]:
    """The original context plus up to ``max_variants`` legal
    ``distribute``/``fuse`` rewrites of it, each built and judged by its
    catalogue record — the same step ``parse_schedule`` takes for the
    context's origin spec.

    Distribution legality is the classic projection test on the
    original's dependences (an illegal distribution is never analysed);
    fusion is admitted through its inverse: the fused program is kept
    only when *distributing it back* is legal.
    """
    root = make_context(program, deps, layout=layout)
    before = Rewritten(program, root.deps)
    contexts = [root]
    with span("tune.space.contexts", program=program.name):
        for kind in _stage("variant"):
            for args in kind.sites(root.layout, root.deps):
                if len(contexts) - 1 >= max_variants:
                    return contexts
                try:
                    after = kind.apply(before, *args)
                    if not after.legal:
                        counter("tune.space.structural_rejected")
                        continue
                    ctx = make_context(
                        after.program, after.deps, origin=(kind.render(*args),)
                    )
                except ReproError:
                    counter("tune.space.structural_rejected")
                    continue
                contexts.append(ctx)
                counter(f"tune.space.{kind.name}_contexts")
    return contexts


def tiled_contexts(
    program: Program,
    *,
    tile_sizes: Sequence[int] = TILE_LADDER,
    max_variants: int = MAX_TILED_VARIANTS,
) -> list[Context]:
    """Strip-mined variant contexts: one per (loop, tile size) pair, in
    preorder loop order with the ladder innermost, capped at
    ``max_variants``.

    Strip-mining is always legal (an order-preserving bijection of the
    iteration space), so there is no admission test here — only loops
    the rewrite cannot express (non-unit step, already-divided bounds)
    are skipped.  The *blocked* orders of each variant go through the
    ordinary Theorem-2 projection test like any other schedule, against
    the variant's dependence matrix derived from ``program``'s (a
    dependence-memo hit after the base contexts) by
    :func:`~repro.transform.tiling.tiled_deps`.
    """
    before = Rewritten(program)
    out: list[Context] = []
    failed = set()  # a loop that cannot be strip-mined fails for every size
    with span("tune.space.tiled", program=program.name):
        for kind in _stage("tiled"):
            for ref, size in kind.sites(before.deps.layout, before.deps, sizes=tile_sizes):
                if len(out) >= max_variants:
                    return out
                if ref in failed:
                    continue
                try:
                    after = kind.apply(before, ref, size)
                    path = loop_path_by_var(program, ref)
                    ctx = make_context(
                        after.program, after.deps, origin=(kind.render(ref, size),),
                        tile=(_loop_at(after.program, path).var, size),
                    )
                except ReproError:
                    failed.add(ref)
                    counter("tune.space.tiles_rejected")
                    continue
                out.append(ctx)
                counter(f"tune.space.{kind.name}_contexts")
    return out


# -- per-context candidates -------------------------------------------------


def identity_candidate(ctx: Context) -> Candidate:
    return Candidate(ctx, IntMatrix.identity(ctx.layout.dimension))


def lead_candidate(ctx: Context, coord: LoopCoord) -> Candidate | None:
    """Complete "scan ``coord`` outermost" to a full legal matrix; None
    when no completion exists in the permutation fragment."""
    n = ctx.layout.dimension
    pos = ctx.layout.index(coord)
    partial = [[1 if j == pos else 0 for j in range(n)]]
    try:
        completed = complete_transformation(
            ctx.program, partial, ctx.deps, layout=ctx.layout
        )
    except (CompletionError, ReproError):
        counter("tune.space.completions_failed")
        return None
    return Candidate(
        ctx, completed.matrix, (f"lead({coord.var})",), "order", lead=coord.var
    )


def lead_candidates(ctx: Context) -> list[Candidate]:
    out = []
    for coord in ctx.layout.loop_coords():
        cand = lead_candidate(ctx, coord)
        if cand is not None:
            out.append(cand)
    return out


def blocked_lead_candidates(ctx: Context) -> list[Candidate]:
    """Blocked orders of a strip-mined context: complete the two-row
    partial "tile loop outermost, then coordinate X" for every other
    loop coordinate X.

    A single-row lead on the *tile* coordinate is usually completed with
    the point loop immediately inside it — recovering the original order
    plus tile overhead.  Pinning the second-outermost coordinate too is
    what actually produces blocked schedules (e.g. ``(IT, K, I, J)`` for
    a strip-mined ``(I, J, K)`` matmul-shaped nest); each completion
    still passes through the Theorem-2 audit in the driver.
    """
    if ctx.tile is None:
        return []
    tvar = ctx.tile[0]
    layout = ctx.layout
    n = layout.dimension
    coords = layout.loop_coords()
    tile_coord = next((c for c in coords if c.var == tvar), None)
    if tile_coord is None:
        return []
    tpos = layout.index(tile_coord)
    out: list[Candidate] = []
    for second in coords:
        if second is tile_coord:
            continue
        spos = layout.index(second)
        partial = [
            [1 if j == tpos else 0 for j in range(n)],
            [1 if j == spos else 0 for j in range(n)],
        ]
        try:
            completed = complete_transformation(
                ctx.program, partial, ctx.deps, layout=layout
            )
        except (CompletionError, ReproError):
            counter("tune.space.completions_failed")
            continue
        out.append(
            Candidate(
                ctx, completed.matrix,
                (f"lead({tvar},{second.var})",), "blocked", lead=tvar,
            )
        )
    return out


def _step_candidates(ctx: Context, kind: Kind) -> list[Candidate]:
    out = []
    for args in kind.sites(ctx.layout, ctx.deps):
        try:
            t = kind.matrix(ctx.layout, *args)
        except ReproError:
            continue
        out.append(Candidate(ctx, t.matrix, (kind.render(*args),), kind.name))
    return out


def elementary_candidates(ctx: Context) -> list[Candidate]:
    """Single-step candidates over one context: every linear kind of the
    catalogue at its tuner sites (interchanges and skews of nested loop
    pairs, reversals, statement reorderings).  Inexpressible
    constructions are skipped, not errors."""
    return [c for kind in _stage("step") for c in _step_candidates(ctx, kind)]


def exposes_wavefront(layout: Layout, matrix, deps: DependenceMatrix) -> bool:
    """True when some loop of the transformed program is DOALL *and* the
    program has dependences — i.e. the schedule genuinely creates
    wavefront parallelism the ``source-par`` backend can dispatch, as
    opposed to parallelism that was already there (dependence-free
    programs are trivially parallel under any schedule)."""
    from repro.analysis.parallel import parallel_loops

    if not any(True for _ in deps):
        return False
    try:
        marks = parallel_loops(layout, matrix, deps)
    except ReproError:
        return False
    return any(m.is_parallel for m in marks)


def wavefront_candidates(ctx: Context) -> list[Candidate]:
    """Skew candidates retagged ``kind="wavefront"`` when they expose a
    DOALL loop on a program that has dependences — the skew-then-
    parallelize moves the ``source-par`` backend exists for.  Emitted
    *before* :func:`elementary_candidates` in enumeration order so
    :func:`dedupe` (which keeps first occurrences) retains the
    wavefront tag over the plain skew duplicate."""
    out = [
        Candidate(ctx, cand.matrix, cand.steps, "wavefront")
        for cand in _step_candidates(ctx, KINDS["skew"])
        if exposes_wavefront(ctx.layout, cand.matrix, ctx.deps)
    ]
    if out:
        counter("tune.space.wavefront_candidates", len(out))
    return out


def compose_candidate(base: Candidate, step: Candidate) -> Candidate:
    """Extend ``base`` by one elementary ``step`` of the same context
    (matrix product — ``step`` applies after ``base``)."""
    assert step.context is base.context
    return Candidate(
        base.context,
        step.matrix @ base.matrix,
        base.steps + step.steps,
        step.kind if base.kind == "identity" else f"{base.kind}+{step.kind}",
        lead=base.lead,
    )


def dedupe(candidates: Iterable[Candidate]) -> list[Candidate]:
    """Drop candidates whose canonical form (program text × matrix) was
    already seen, keeping first occurrences in order."""
    seen: set[tuple] = set()
    out: list[Candidate] = []
    for cand in candidates:
        key = cand.canonical_key()
        if key in seen:
            counter("tune.space.duplicates")
            continue
        seen.add(key)
        out.append(cand)
    return out


def enumerate_candidates(
    program: Program,
    deps: DependenceMatrix | None = None,
    *,
    layout: Layout | None = None,
    include_structural: bool = True,
    max_variants: int = MAX_STRUCTURAL_VARIANTS,
    tile_sizes: Sequence[int] | None = None,
    max_tiled_variants: int = MAX_TILED_VARIANTS,
    max_candidates: int | None = None,
    wavefront: bool = False,
) -> list[Candidate]:
    """The full level-1 candidate set: the default order, every
    completed loop order, every elementary transformation of the
    original program, loop orders of each legal structural
    (distribution/fusion) variant, and — when ``tile_sizes`` is
    given — identity, loop orders, and blocked two-row orders of every
    strip-mined variant.  With ``wavefront=True`` (the driver sets it
    for the ``source-par`` backend), skew candidates that expose a DOALL
    loop are additionally tagged ``kind="wavefront"`` so the driver can
    reserve measurement slots for them.  Deduplicated and capped at
    :func:`resolve_max_candidates`; legality is *not* checked here — the
    driver prunes with the Theorem-2 test before scoring or executing
    anything."""
    if include_structural:
        contexts = base_contexts(
            program, deps, layout=layout, max_variants=max_variants
        )
    else:
        contexts = [make_context(program, deps, layout=layout)]
    out: list[Candidate] = []
    for i, ctx in enumerate(contexts):
        out.append(identity_candidate(ctx))
        out.extend(lead_candidates(ctx))
        if i == 0:
            if wavefront:
                out.extend(wavefront_candidates(ctx))
            out.extend(elementary_candidates(ctx))
    if tile_sizes:
        for ctx in tiled_contexts(
            program, tile_sizes=tile_sizes, max_variants=max_tiled_variants
        ):
            out.append(identity_candidate(ctx))
            out.extend(lead_candidates(ctx))
            out.extend(blocked_lead_candidates(ctx))
    out = cap_candidates(
        dedupe(out), resolve_max_candidates(max_candidates), "enumerate"
    )
    counter("tune.space.enumerated", len(out))
    return out
