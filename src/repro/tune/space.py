"""Candidate enumeration for the schedule autotuner.

The search space is assembled from the framework's own transformation
constructors, so every candidate is *expressible* by construction and
its legality is decidable by the Theorem-2 projection test before any
code is generated or executed:

* **loop orders** — for every loop coordinate, the partial
  transformation "scan this coordinate outermost" completed to a full
  matrix by :func:`repro.completion.complete_transformation` (the §6
  procedure; legal by construction, still audited);
* **interchanges / reversals / skews** — elementary §4.1 matrices over
  nested loop pairs, with skew factors seeded from the constants that
  actually appear in the dependence-matrix entries;
* **statement reorderings** — §4.2 child permutations of multi-child
  nodes;
* **distribution / jamming variants** — AST-level rewrites from
  :mod:`repro.transform.distribution`; each legal variant becomes a new
  search *context* (its own program, layout and dependence matrix) whose
  schedules are enumerated like the original's.

Candidates are deduplicated by canonical form: the pair (canonical
program text, matrix rows).  Two different derivations of the same
schedule — e.g. ``permute(I,J); permute(I,J)`` and the identity — keep
only the first representative.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import os

from repro.completion.complete import complete_transformation
from repro.dependence.analyze import analyze_dependences
from repro.dependence.depvector import DependenceMatrix
from repro.instance.layout import Layout, LoopCoord, Path
from repro.ir.ast import Loop, Node, Program
from repro.ir.printer import program_to_str
from repro.linalg.intmat import IntMatrix
from repro.obs import counter, event, span
from repro.transform.distribution import (
    _loop_at, distribute, distribution_legal, jam,
)
from repro.transform.matrices import (
    permutation, reversal, skew, statement_reorder,
)
from repro.transform.tiling import (
    TILE_LADDER, fuse, fuse_legal, fuse_sites, strip_mine, tiled_deps,
)
from repro.util.errors import CompletionError, ReproError, TransformError

__all__ = [
    "Context", "Candidate", "make_context", "base_contexts",
    "tiled_contexts", "identity_candidate", "lead_candidate",
    "lead_candidates", "blocked_lead_candidates", "elementary_candidates",
    "enumerate_candidates", "compose_candidate", "dedupe",
    "skew_factors_from_deps", "loop_paths", "cap_candidates",
    "resolve_max_candidates", "exposes_wavefront", "wavefront_candidates",
]

#: Upper bound on |skew factor| accepted from dependence entries.
SKEW_FACTOR_BOUND = 2

#: Child-count cap for exhaustive statement reorderings (3! - 1 = 5
#: permutations; beyond that the space explodes factorially).
MAX_REORDER_CHILDREN = 3

#: Cap on distribution/jamming/fusion variant contexts per enumeration.
MAX_STRUCTURAL_VARIANTS = 4

#: Cap on strip-mined (tiled) variant contexts per enumeration — one
#: context per (loop, tile size) pair survives up to this bound.
MAX_TILED_VARIANTS = 8

#: Default overall candidate cap per enumeration level; overridable by
#: ``--max-candidates`` / the REPRO_TUNE_MAX environment variable.
#: Tiling multiplies the context count by the ladder, so an unbounded
#: enumeration could silently blow up tune wall-clock.
DEFAULT_MAX_CANDIDATES = 96

#: Environment override for the candidate cap.
MAX_CANDIDATES_ENV = "REPRO_TUNE_MAX"


def resolve_max_candidates(max_candidates: int | None = None) -> int:
    """The effective candidate cap: the explicit argument, else the
    ``REPRO_TUNE_MAX`` environment variable, else the default."""
    if max_candidates is not None:
        return max(1, int(max_candidates))
    env = os.environ.get(MAX_CANDIDATES_ENV, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return DEFAULT_MAX_CANDIDATES


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
        f"or {MAX_CANDIDATES_ENV} to search the dropped tail",
        stage=stage, cap=cap, enumerated=len(candidates), dropped=dropped,
    )
    return candidates[:cap]


@dataclass(eq=False)
class Context:
    """One program the tuner searches schedules *of*: the original, or a
    semantically equivalent structural variant (distribution, jamming,
    fusion, strip-mining)."""

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


def loop_paths(program: Program) -> list[Path]:
    """Paths of every loop node, preorder."""
    out: list[Path] = []

    def walk(children: Sequence[Node], path: Path) -> None:
        for j, child in enumerate(children):
            if isinstance(child, Loop):
                cpath = path + (j,)
                out.append(cpath)
                walk(child.body, cpath)

    walk(program.body, ())
    return out


# -- structural variants (distribution / jamming) ---------------------------


def base_contexts(
    program: Program,
    deps: DependenceMatrix | None = None,
    *,
    layout: Layout | None = None,
    max_variants: int = MAX_STRUCTURAL_VARIANTS,
) -> list[Context]:
    """The original context plus up to ``max_variants`` legal
    distribution/jamming rewrites of it.

    Distribution legality is the classic projection test
    (:func:`repro.transform.distribution.distribution_legal`).  Jamming
    is admitted through its inverse: the jammed program is kept only
    when *distributing it back* at the fusion point is legal, which
    proves the jammed and original programs equivalent.
    """
    root = make_context(program, deps, layout=layout)
    contexts = [root]
    with span("tune.space.contexts", program=program.name):
        for path in loop_paths(program):
            node = root.layout.node_at(path)
            assert isinstance(node, Loop)
            for split in range(1, len(node.body)):
                if len(contexts) - 1 >= max_variants:
                    break
                try:
                    if not distribution_legal(root.deps, path, split):
                        counter("tune.space.structural_rejected")
                        continue
                    variant = distribute(program, path, split)
                    ctx = make_context(
                        variant, origin=(f"distribute({_fmt_path(path)}, {split})",)
                    )
                except ReproError:
                    counter("tune.space.structural_rejected")
                    continue
                contexts.append(ctx)
                counter("tune.space.distributions")
        for path, split in _jam_sites(program):
            if len(contexts) - 1 >= max_variants:
                break
            try:
                jammed = jam(program, path)
                jdeps = analyze_dependences(jammed)
                if not distribution_legal(jdeps, path, split):
                    counter("tune.space.structural_rejected")
                    continue
                ctx = make_context(
                    jammed, jdeps, origin=(f"jam({_fmt_path(path)})",)
                )
            except ReproError:
                counter("tune.space.structural_rejected")
                continue
            contexts.append(ctx)
            counter("tune.space.jams")
        # fusion: distribution contexts run in reverse, generalized to
        # headers matching up to a constant offset (tiling.fuse); exact
        # jam sites were handled above, so skip them here
        jam_paths = {p for p, _ in _jam_sites(program)}
        for path in fuse_sites(program):
            if path in jam_paths:
                continue
            if len(contexts) - 1 >= max_variants:
                break
            try:
                fused = fuse(program, path)
                fdeps = analyze_dependences(fused)
                if not fuse_legal(program, path, fused=fused, fused_deps=fdeps):
                    counter("tune.space.structural_rejected")
                    continue
                ctx = make_context(
                    fused, fdeps, origin=(f"fuse({_fmt_path(path)})",)
                )
            except ReproError:
                counter("tune.space.structural_rejected")
                continue
            contexts.append(ctx)
            counter("tune.space.fusions")
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
    deps = analyze_dependences(program)
    out: list[Context] = []
    with span("tune.space.tiled", program=program.name):
        for path in loop_paths(program):
            for size in tile_sizes:
                if len(out) >= max_variants:
                    return out
                try:
                    variant = strip_mine(program, path, size)
                except TransformError:
                    counter("tune.space.tiles_rejected")
                    break  # same loop fails for every size
                var = _loop_at(program, path).var
                try:
                    ctx = make_context(
                        variant,
                        tiled_deps(program, path, size, deps, variant),
                        origin=(f"tile({var},{size})",),
                        tile=(_loop_at(variant, path).var, size),
                    )
                except ReproError:
                    counter("tune.space.tiles_rejected")
                    continue
                out.append(ctx)
                counter("tune.space.tiles")
    return out


def _jam_sites(program: Program) -> list[tuple[Path, int]]:
    """(path, split) pairs where adjacent sibling loops share a header:
    jamming at ``path`` fuses it with its next sibling, and ``split``
    is where distribution would cut the fused body back apart."""
    sites: list[tuple[Path, int]] = []

    def walk(children: Sequence[Node], path: Path) -> None:
        for j, child in enumerate(children):
            if not isinstance(child, Loop):
                continue
            cpath = path + (j,)
            nxt = children[j + 1] if j + 1 < len(children) else None
            if (
                isinstance(nxt, Loop)
                and (child.var, child.lower, child.upper, child.step)
                == (nxt.var, nxt.lower, nxt.upper, nxt.step)
            ):
                sites.append((cpath, len(child.body)))
            walk(child.body, cpath)

    walk(program.body, ())
    return sites


def _fmt_path(path: Path) -> str:
    return ".".join(map(str, path)) or "root"


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


def skew_factors_from_deps(
    deps: DependenceMatrix, *, bound: int = SKEW_FACTOR_BOUND
) -> tuple[int, ...]:
    """Skew factors seeded from the finite constants of the dependence
    matrix: a dependence entry ``c`` at a loop position suggests ``±c``
    (a skew by ``-c`` is what straightens that component out)."""
    factors = {1, -1}
    for d in deps:
        for e in d.entries:
            for v in (e.lo, e.hi):
                if isinstance(v, int) and v != 0 and abs(v) <= bound:
                    factors.add(v)
                    factors.add(-v)
    return tuple(sorted(factors))


def _nested_pairs(layout: Layout) -> list[tuple[LoopCoord, LoopCoord]]:
    """(ancestor, descendant) loop-coordinate pairs — the pairs where
    interchange and skewing are structurally meaningful."""
    coords = layout.loop_coords()
    out = []
    for a in coords:
        for b in coords:
            if a is b:
                continue
            if b.path[: len(a.path)] == a.path and len(b.path) > len(a.path):
                out.append((a, b))
    return out


def elementary_candidates(
    ctx: Context,
    *,
    skew_factors: Iterable[int] | None = None,
    max_reorder_children: int = MAX_REORDER_CHILDREN,
) -> list[Candidate]:
    """Single-step §4.1/§4.2 candidates over one context: interchanges
    and skews of nested loop pairs, reversals, statement reorderings.
    Inexpressible constructions are skipped, not errors."""
    layout = ctx.layout
    out: list[Candidate] = []
    pairs = _nested_pairs(layout)
    if skew_factors is None:
        skew_factors = skew_factors_from_deps(ctx.deps)

    for a, b in pairs:
        try:
            t = permutation(layout, a.path, b.path)
        except ReproError:
            continue
        out.append(
            Candidate(ctx, t.matrix, (f"permute({a.var},{b.var})",), "permute")
        )

    for c in layout.loop_coords():
        try:
            t = reversal(layout, c.path)
        except ReproError:
            continue
        out.append(Candidate(ctx, t.matrix, (f"reverse({c.var})",), "reverse"))

    for a, b in pairs:
        for f in skew_factors:
            for tgt, src in ((a, b), (b, a)):
                try:
                    t = skew(layout, tgt.path, src.path, f)
                except ReproError:
                    continue
                out.append(
                    Candidate(
                        ctx, t.matrix,
                        (f"skew({tgt.var},{src.var},{f})",), "skew",
                    )
                )

    for parent in [(), *loop_paths(ctx.program)]:
        try:
            children = (
                ctx.program.body if not parent else ctx.layout.node_at(parent).body  # type: ignore[union-attr]
            )
        except ReproError:
            continue
        c = len(children)
        if c < 2 or c > max_reorder_children:
            continue
        for perm in itertools.permutations(range(c)):
            if list(perm) == list(range(c)):
                continue
            try:
                t, _ = statement_reorder(layout, parent, list(perm))
            except ReproError:
                continue
            out.append(
                Candidate(
                    ctx, t.matrix,
                    (f"reorder({_fmt_path(parent)}, {perm})",), "reorder",
                )
            )
    return out


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
    out: list[Candidate] = []
    for cand in elementary_candidates(ctx):
        if cand.kind != "skew":
            continue
        if exposes_wavefront(ctx.layout, cand.matrix, ctx.deps):
            out.append(Candidate(ctx, cand.matrix, cand.steps, "wavefront"))
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
    (distribution/jamming/fusion) variant, and — when ``tile_sizes`` is
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
