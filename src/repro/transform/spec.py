"""The transformation catalogue: one record per kind of §4, and the spec
syntax over it.

A spec is a semicolon-separated sequence of transformations::

    tile(I,16); fuse(J); permute(I,J); skew(I,J,-1); align(S1,I,1)

This is the CLI's surface syntax (``repro check FILE SPEC``) and the
serialization format the differential fuzzer (:mod:`repro.fuzz`) uses
for its corpus files — a spec names loops and statements symbolically,
so it survives the structural shrinking that a raw matrix (whose shape
is tied to the layout dimension) would not.  A loop argument is a loop
variable or a dotted preorder path (``0.1``; ``root`` is the program's
top level): a path addresses loops that share a name.

:data:`CATALOGUE` holds one :class:`Kind` per transformation, and every
reader of a kind reads it: the parser and renderer here, the tuner's
search space (:mod:`repro.tune.space`), the fuzzer's sampler and
shrinker.  Two classes of kind have different machinery behind them:

* **linear** kinds (``permute``/``reverse``/``skew``/``reorder``/
  ``scale``/``align``) compose into one square matrix over the program's
  :class:`~repro.instance.Layout` — :func:`parse_spec`;
* **structural** kinds (``tile``/``distribute``/``fuse``) rewrite the
  program itself and therefore must come *first* in a spec: each changes
  the layout the linear suffix is a matrix over.  :func:`parse_schedule`
  handles full specs, returning a :class:`Schedule` that carries the
  rewritten program, the composed linear matrix, and the instance-space
  pullback the equivalence oracles need.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

from repro.dependence.analyze import analyze_dependences
from repro.dependence.depvector import DependenceMatrix
from repro.instance.layout import Layout, Path
from repro.ir.ast import Program
from repro.linalg.intmat import IntMatrix
from repro.transform.distribution import (
    _loop_at, distribute, distribution_legal,
)
from repro.transform.matrices import (
    Transformation, alignment, compose, identity, permutation, reversal,
    scaling, skew, statement_reorder,
)
from repro.transform.tiling import (
    TILE_LADDER, _sibling_pair, fuse, fuse_legal, fuse_site_offset, fuse_sites,
    loop_path_by_var, loop_paths, strip_mine, tiled_deps,
)
from repro.util.errors import ReproError

__all__ = [
    "CATALOGUE", "KINDS", "Kind", "Rewritten", "Schedule", "SPEC_GRAMMAR",
    "parse_part", "parse_schedule", "parse_spec", "skew_factors_from_deps",
    "spec_ops",
]

_SPEC_RE = re.compile(r"\s*([a-z_]+)\s*\(([^)]*)\)\s*")
_PATH_RE = re.compile(r"\d+(?:\.\d+)*")

#: Upper bound on |skew factor| the tuner seeds from dependence entries.
SKEW_FACTOR_BOUND = 2

#: Child-count cap for the tuner's exhaustive statement reorderings
#: (3! - 1 = 5 permutations; beyond that the space explodes factorially).
MAX_REORDER_CHILDREN = 3

#: Tile sizes the fuzzer strip-mines with — deliberately tiny so tile
#: loops have several iterations at fuzz-sized N in (3..5).
FUZZ_TILE_SIZES = (2, 3, 4)


def spec_ops(spec: str) -> list[str]:
    """Split a spec into its elementary-operation substrings."""
    return [p.strip() for p in spec.split(";") if p.strip()]


def _fmt(arg) -> str:
    if isinstance(arg, tuple):
        return ".".join(map(str, arg)) or "root"
    return str(arg)


def _call(name: str, *args) -> str:
    return f"{name}({','.join(map(_fmt, args))})"


def _token(type_: str, token: str):
    if type_ == "label":
        return token
    if type_ != "loop":
        try:
            return int(token)
        except ValueError:
            raise ReproError(f"expected an integer, got {token!r}") from None
    if token == "root":
        return ()
    return tuple(map(int, token.split("."))) if _PATH_RE.fullmatch(token) else token


# -- structural steps --------------------------------------------------------


@dataclass(eq=False)
class Rewritten:
    """A program after zero or more structural steps: whether each step
    passed its legality test, which steps derived (rather than analysed)
    their dependence matrix, and one instance pullback per step
    (``label -> (position, delta)``: add ``delta`` back to that loop
    value, or drop the value when ``delta`` is None)."""

    program: Program
    given: DependenceMatrix | None = None
    legal: bool = True
    pullbacks: tuple = ()
    derived: bool = False

    @cached_property
    def deps(self) -> DependenceMatrix:
        """The dependence matrix: derived or analysed by the last step,
        else §3 on first use (so an illegal rewrite costs no analysis)."""
        if self.given is not None:
            return self.given
        return analyze_dependences(self.program)

    def then(self, program, deps=None, *, legal=True, pullback=None, derived=False):
        return Rewritten(
            program, deps, self.legal and legal,
            self.pullbacks + ((pullback,) if pullback else ()), self.derived or derived,
        )


def _tile_follow(before: Rewritten, after: Program, path: Path, size: int) -> Rewritten:
    """The strip-mined program's dependences are derived from the
    parent's (:func:`~repro.transform.tiling.tiled_deps`, no §3 run); a
    pullback drops the tile-loop value.  Always legal."""
    tvar = _loop_at(after, path).var
    labels = {s.label for s in _loop_at(before.program, path).statements()}
    return before.then(
        after, tiled_deps(before.program, path, size, before.deps, after),
        pullback={lbl: (after.loop_vars(lbl).index(tvar), None) for lbl in labels},
        derived=True,
    )


def _fuse_follow(before: Rewritten, after: Program, path: Path) -> Rewritten:
    """Fusion is legal iff distributing the fused loop back is
    (:func:`~repro.transform.tiling.fuse_legal`, on the fused program's
    analysed dependences); a pullback adds the alignment offset back to
    the fused coordinate of the statements it moved."""
    a, b = _sibling_pair(before.program, path)
    delta = fuse_site_offset(a, b)
    deps = analyze_dependences(after)
    legal = fuse_legal(before.program, path, fused=after, fused_deps=deps)
    return before.then(
        after, deps, legal=legal,
        pullback={s.label: (after.loop_vars(s.label).index(a.var), delta) for s in b.statements()},
    )


def _distribute_follow(before: Rewritten, after: Program, path: Path, split: int) -> Rewritten:
    """The classic projection test on the source's dependences; every
    statement keeps its loop values, so there is no pullback."""
    return before.then(after, legal=distribution_legal(before.deps, path, split))


# -- tuner sites -------------------------------------------------------------


def _refs(layout: Layout) -> dict:
    """How a spec names each loop (by path): its variable when that is
    unique, else its path."""
    coords = layout.loop_coords()
    names = [c.var for c in coords]
    return {c.path: c.var if names.count(c.var) == 1 else c.path for c in coords}


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


def _nested_pairs(layout: Layout):
    """(ancestor, descendant) loop refs — the pairs where interchange
    and skewing are structurally meaningful."""
    refs = _refs(layout)
    return [
        (refs[a], refs[b]) for a in refs for b in refs
        if len(b) > len(a) and b[: len(a)] == a
    ]


def _skew_sites(layout, deps):
    factors = skew_factors_from_deps(deps)
    for a, b in _nested_pairs(layout):
        for f in factors:
            yield (a, b, f)
            yield (b, a, f)


def _reorder_sites(layout, deps):
    for parent in [(), *loop_paths(layout.program)]:
        c = len(layout.children_of(parent))
        if 2 <= c <= MAX_REORDER_CHILDREN:
            for perm in itertools.permutations(range(c)):
                if list(perm) != list(range(c)):
                    yield (parent, *perm)


def _tile_sites(layout, deps, sizes=TILE_LADDER):
    refs = _refs(layout)
    for path in loop_paths(layout.program):
        for size in sizes:
            yield (refs[path], size)


def _distribute_sites(layout, deps):
    for path in loop_paths(layout.program):
        for split in range(1, len(layout.children_of(path))):
            yield (path, split)


# -- fuzzer draws: (rng, layout) -> spec text, or None without a site -------


def _pool(layout: Layout, pool):
    if pool in ("loops", "loop pair"):
        return [c.var for c in layout.loop_coords()]
    if pool == "labels":
        return layout.statement_labels()
    if pool == "fusable":  # a uniformly random loop almost never leads a fusable pair
        return [layout.node_at(path).var for path in fuse_sites(layout.program)]
    return pool


def _draw(name: str, *pools):
    """A draw of ``name`` with one argument from each pool, in order:
    ``loops``, ``labels`` or ``fusable`` of the layout, a ``loop pair``
    (two distinct loops), or a tuple of constants; None when a pool is
    too small."""

    def draw(rng, layout):
        items = [_pool(layout, p) for p in pools]
        if any(len(i) < 1 + (p == "loop pair") for i, p in zip(items, pools)):
            return None
        args = []
        for i, p in zip(items, pools):
            args.extend(rng.sample(i, 2) if p == "loop pair" else [rng.choice(i)])
        return _call(name, *args)

    return draw


def _draw_wavefront(rng, layout):
    """The wavefront move: an outer entry of M·d may be zero, so a
    dependence can fall through to the interchanged inner loop."""
    loops = _pool(layout, "loops")
    if len(loops) < 2:
        return None
    a, b = rng.sample(loops, 2)
    return f"{_call('skew', a, b, rng.choice((1, 2)))}; {_call('permute', a, b)}"


# -- the catalogue -----------------------------------------------------------


def _reorder_matrix(layout: Layout, parent, *order: int) -> Transformation:
    if isinstance(parent, str):
        parent = layout.loop_coord_by_var(parent).path
    return statement_reorder(layout, parent, list(order))[0]


@dataclass(frozen=True)
class Kind:
    """One transformation kind.

    ``params`` is the argument signature, space-separated ``name[:type]``
    with type ``loop`` (the default), ``label``, ``int`` or ``int...``
    (one or more trailing integers).  A linear kind has ``matrix(layout,
    *args)``; a structural kind has ``rewrite(program, path, *rest)``
    (the AST rewrite alone) and ``follow(before, after, path, *rest)``
    (legality, dependence matrix, pullback).  ``sites(layout, deps)``
    yields the argument tuples the tuner tries at its ``tuner`` stage
    (``step``: a candidate over the source program; ``variant``: a
    search context; ``tiled``: a strip-mined context per size of the
    ladder its sites also take).  ``draws`` are the fuzzer's ``(slot,
    weight, draw)``: the slot fixes the position in the sampler's
    weighted walk, so a seed keeps its cases.  ``weaken`` is
    ``(argument, floor)``: the integer argument the shrinker moves
    toward ``±floor``."""

    name: str
    params: str
    aliases: tuple[str, ...] = ()
    matrix: Callable[..., Transformation] | None = None
    rewrite: Callable[..., Program] | None = None
    follow: Callable[..., Rewritten] | None = None
    tuner: str | None = None
    sites: Callable[..., Iterable[tuple]] | None = None
    draws: tuple = ()
    weaken: tuple[int, int] | None = None

    @property
    def structural(self) -> bool:
        return self.rewrite is not None

    @property
    def signature(self) -> str:
        return _call(self.name, *(p.split(":")[0] + "..." * p.endswith("...")
                                  for p in self.params.split()))

    def args(self, tokens: list[str]) -> tuple:
        """Typed arguments from a spec part's argument tokens."""
        types = [(p.partition(":")[2] or "loop") for p in self.params.split()]
        tail = types[-1].endswith("...")
        if len(tokens) != len(types) and not (tail and len(tokens) > len(types)):
            raise ReproError(f"{self.name} takes {self.signature}")
        types += [types[-1]] * (len(tokens) - len(types))
        return tuple(_token(t.rstrip("."), tok) for t, tok in zip(types, tokens))

    def render(self, *args) -> str:
        return _call(self.name, *args)

    def apply(self, before: Rewritten, *args) -> Rewritten:
        """One structural step on ``before``'s program."""
        path = loop_path_by_var(before.program, args[0])
        after = self.rewrite(before.program, path, *args[1:])
        return self.follow(before, after, path, *args[1:])


#: Every transformation kind, in the tuner's enumeration order.
CATALOGUE: tuple[Kind, ...] = (
    Kind("permute", "a b", ("interchange",), matrix=permutation, tuner="step",
         sites=lambda layout, deps: _nested_pairs(layout),
         draws=((0, 30, _draw("permute", "loop pair")),)),
    Kind("reverse", "loop", ("reversal",), matrix=reversal, tuner="step",
         sites=lambda layout, deps: [(ref,) for ref in _refs(layout).values()],
         draws=((2, 20, _draw("reverse", "loops")),)),
    Kind("skew", "target source factor:int", matrix=skew, tuner="step",
         sites=_skew_sites, weaken=(2, 1),
         draws=((1, 20, _draw("skew", "loop pair", (-2, -1, 1, 2))),
                (5, 10, _draw_wavefront))),
    Kind("reorder", "parent order:int...", matrix=_reorder_matrix,
         tuner="step", sites=_reorder_sites),
    Kind("scale", "loop factor:int", matrix=scaling, weaken=(1, 2),  # scale(x,1) is the identity
         draws=((4, 10, _draw("scale", "loops", (2, 3))),)),
    Kind("align", "label:label loop offset:int", matrix=alignment, weaken=(2, 1),
         draws=((3, 15, _draw("align", "labels", "loops", (-2, -1, 1, 2))),)),
    Kind("tile", "loop size:int", rewrite=strip_mine, follow=_tile_follow,
         tuner="tiled", sites=_tile_sites,
         draws=((0, 7, _draw("tile", "loops", FUZZ_TILE_SIZES)),)),
    Kind("distribute", "loop split:int", rewrite=distribute,
         follow=_distribute_follow, tuner="variant", sites=_distribute_sites),
    Kind("fuse", "loop", rewrite=fuse, follow=_fuse_follow, tuner="variant",
         sites=lambda layout, deps: [(path,) for path in fuse_sites(layout.program)],
         draws=((1, 3, _draw("fuse", "fusable")),)),
)

#: name or alias -> kind
KINDS: dict[str, Kind] = {n: k for k in CATALOGUE for n in (k.name, *k.aliases)}

SPEC_GRAMMAR = (
    " | ".join(k.signature for k in CATALOGUE)
    + "  — tile/distribute/fuse rewrite the program and must precede the rest;"
    " a loop is a variable or a dotted path (0.1, root)"
)


def parse_part(part: str) -> tuple[Kind, tuple]:
    """The kind and typed arguments of one spec part."""
    m = _SPEC_RE.fullmatch(part)
    if not m:
        raise ReproError(f"cannot parse transformation {part.strip()!r}")
    try:
        kind = KINDS.get(m.group(1))
        if kind is None:
            raise ReproError(
                f"unknown transformation {m.group(1)!r} "
                f"(known: {', '.join(k.name for k in CATALOGUE)})"
            )
        return kind, kind.args([a.strip() for a in m.group(2).split(",") if a.strip()])
    except ReproError as exc:
        raise ReproError(f"in spec part {part.strip()!r}: {exc}") from exc


def _parse(spec: str) -> list[tuple[str, Kind, tuple]]:
    parts = spec_ops(spec)
    if not parts:
        raise ReproError("empty transformation spec")
    return [(part, *parse_part(part)) for part in parts]


def _compose(layout: Layout, parsed) -> Transformation:
    transforms = []
    for part, kind, args in parsed:
        if kind.structural:
            raise ReproError(
                f"structural op {part!r} rewrites the program: it must precede "
                "the linear transformations in a spec parsed against the program"
            )
        try:
            transforms.append(kind.matrix(layout, *args))
        except (ReproError, KeyError, ValueError, IndexError) as exc:
            raise ReproError(f"in spec part {part!r}: {exc}") from exc
    return compose(*transforms)


def parse_spec(layout: Layout, spec: str) -> Transformation:
    """Parse a spec of linear transformations into one composed
    Transformation over ``layout``.

    Errors from the transform constructors (unknown loop variable or
    statement label, non-integer factor, ...) are wrapped into a
    :class:`ReproError` naming the offending spec part.
    """
    return _compose(layout, _parse(spec))


@dataclass(frozen=True)
class Schedule:
    """A parsed full spec: structural rewrites plus a linear matrix.

    ``program``/``layout``/``deps`` describe the *rewritten* program the
    ``transformation`` matrix is over (identical to ``source`` when the
    spec had no structural prefix); ``derived`` is True when some step
    (a ``tile``) derived its dependences from the parent's instead of
    analysing.  ``structural_legal`` is False when some ``fuse`` or
    ``distribute`` failed its Theorem-2 test (the rewrite is still
    materialized so illegal-injection fuzzing can execute it and observe
    the divergence); ``tile`` is always legal.
    """

    source: Program
    program: Program
    layout: Layout
    deps: DependenceMatrix
    transformation: Transformation
    structural: tuple[str, ...] = ()
    structural_legal: bool = True
    _pullbacks: tuple = ()
    derived: bool = False

    @property
    def matrix(self) -> IntMatrix:
        return self.transformation.matrix

    @property
    def is_structural(self) -> bool:
        return bool(self.structural)

    def pullback(self, label: str, values) -> tuple[int, ...]:
        """Map a statement instance's loop values from the rewritten
        program's iteration space back to ``source``'s (ordered by each
        program's ``loop_vars(label)``), undoing each structural step in
        reverse (see :class:`Rewritten`)."""
        vals = list(values)
        for info in reversed(self._pullbacks):
            if label in info:
                pos, delta = info[label]
                if delta is None:
                    vals.pop(pos)
                else:
                    vals[pos] += delta
        return tuple(vals)


def parse_schedule(program: Program, spec: str) -> Schedule:
    """Parse a full spec — structural prefix plus linear suffix —
    against ``program``.

    Structural steps apply left to right, each resolved against the
    program the previous ones produced; the linear suffix then composes
    over the final program's layout.  A structural op *after* a linear
    op is an error (the linear matrix would be over a layout the rewrite
    invalidates).

    The dependence matrix runs alongside: one derivation per ``tile``
    (:func:`~repro.transform.tiling.tiled_deps`, no §3 run) and a real
    analysis per ``fuse`` (whose legality test asks about loop pairs the
    fusion creates) or wherever a later step or the result needs one.
    A derived matrix never enters the dependence memo: a memo entry is
    an analysis.
    """
    parsed = _parse(spec)
    split = next((i for i, p in enumerate(parsed) if not p[1].structural), len(parsed))
    state = Rewritten(program)
    for part, kind, args in parsed[:split]:
        try:
            state = kind.apply(state, *args)
        except ReproError as exc:
            raise ReproError(f"in spec part {part!r}: {exc}") from exc
    layout = Layout(state.program)
    t = _compose(layout, parsed[split:]) if split < len(parsed) else identity(layout)
    return Schedule(
        program, state.program, layout, state.deps, t,
        tuple(p for p, _, _ in parsed[:split]), state.legal, state.pullbacks,
        state.derived,
    )
