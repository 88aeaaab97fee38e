"""Textual transformation specs: parse and render.

A spec is a semicolon-separated sequence of transformations::

    tile(I,16); fuse(J); permute(I,J); skew(I,J,-1); align(S1,I,1)

This is the CLI's surface syntax (``repro check FILE SPEC``) and the
serialization format the differential fuzzer (:mod:`repro.fuzz`) uses
for its corpus files — a spec names loops and statements symbolically,
so it survives the structural shrinking that a raw matrix (whose shape
is tied to the layout dimension) would not.

Two op classes with different machinery behind them:

* **linear ops** (``permute``/``skew``/``reverse``/``scale``/``align``)
  compose into one square matrix over the program's
  :class:`~repro.instance.Layout` — :func:`parse_spec`;
* **structural ops** (``tile``/``fuse``) rewrite the program itself
  (:mod:`repro.transform.tiling`) and therefore must come *first* in a
  spec: every structural op changes the layout the linear suffix is a
  matrix over.  :func:`parse_schedule` handles full specs, returning a
  :class:`Schedule` that carries the rewritten program, the composed
  linear matrix, and the instance-space pullback the equivalence
  oracles need.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.dependence.analyze import analyze_dependences
from repro.dependence.depvector import DependenceMatrix
from repro.instance.layout import Layout
from repro.ir.ast import Loop, Program
from repro.linalg.intmat import IntMatrix
from repro.transform.distribution import _loop_at
from repro.transform.matrices import (
    Transformation, alignment, compose, identity, permutation, reversal,
    scaling, skew,
)
from repro.transform.tiling import (
    fuse, fuse_legal, fuse_site_offset, loop_path_by_var, strip_mine, tiled_deps,
)
from repro.util.errors import ReproError

__all__ = [
    "parse_spec", "parse_schedule", "Schedule", "spec_ops", "SPEC_GRAMMAR",
]

_SPEC_RE = re.compile(r"\s*([a-z_]+)\s*\(([^)]*)\)\s*")

SPEC_GRAMMAR = (
    "tile(loop,size) | fuse(loop) | "
    "permute(a,b) | skew(target,source,factor) | reverse(loop) | "
    "scale(loop,factor) | align(label,loop,offset)"
    "  — tile/fuse rewrite the program and must precede the rest"
)

#: Ops that rewrite the program (handled by parse_schedule, rejected by
#: parse_spec).
STRUCTURAL_OPS = ("tile", "fuse")


def spec_ops(spec: str) -> list[str]:
    """Split a spec into its elementary-operation substrings."""
    return [p.strip() for p in spec.split(";") if p.strip()]


def parse_spec(layout: Layout, spec: str) -> Transformation:
    """Parse a transformation spec string into a composed Transformation.

    Errors from the transform constructors (unknown loop variable or
    statement label, non-integer factor, ...) are wrapped into a
    :class:`ReproError` naming the offending spec part.
    """
    parts = spec_ops(spec)
    if not parts:
        raise ReproError("empty transformation spec")
    transforms = []
    for part in parts:
        m = _SPEC_RE.fullmatch(part)
        if not m:
            raise ReproError(f"cannot parse transformation {part.strip()!r}")
        name = m.group(1)
        args = [a.strip() for a in m.group(2).split(",") if a.strip()]
        try:
            if name in ("permute", "interchange") and len(args) == 2:
                transforms.append(permutation(layout, args[0], args[1]))
            elif name == "skew" and len(args) == 3:
                transforms.append(skew(layout, args[0], args[1], _spec_int(args[2])))
            elif name in ("reverse", "reversal") and len(args) == 1:
                transforms.append(reversal(layout, args[0]))
            elif name == "scale" and len(args) == 2:
                transforms.append(scaling(layout, args[0], _spec_int(args[1])))
            elif name == "align" and len(args) == 3:
                transforms.append(alignment(layout, args[0], args[1], _spec_int(args[2])))
            else:
                raise ReproError(f"unknown transformation {name!r} with {len(args)} args")
        except ReproError as exc:
            raise ReproError(f"in spec part {part.strip()!r}: {exc}") from exc
        except (KeyError, ValueError) as exc:
            raise ReproError(f"in spec part {part.strip()!r}: {exc}") from exc
    return compose(*transforms)


def _spec_int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ReproError(f"expected an integer, got {token!r}") from None


@dataclass(frozen=True)
class Schedule:
    """A parsed full spec: structural rewrites plus a linear matrix.

    ``program``/``layout``/``deps`` describe the *rewritten* program the
    ``transformation`` matrix is over (identical to ``source`` when the
    spec had no structural prefix); after a trailing ``tile``, ``deps``
    is derived from the parent's, not analysed.  ``structural_legal`` is False when
    some ``fuse`` failed the inverse-distribution Theorem-2 test (the
    rewrite is still materialized so illegal-injection fuzzing can
    execute it and observe the divergence); ``tile`` is always legal.
    """

    source: Program
    program: Program
    layout: Layout
    deps: DependenceMatrix
    transformation: Transformation
    structural: tuple[str, ...] = ()
    structural_legal: bool = True
    _pullbacks: tuple = ()

    @property
    def matrix(self) -> IntMatrix:
        return self.transformation.matrix

    @property
    def is_structural(self) -> bool:
        return bool(self.structural)

    def pullback(self, label: str, values) -> tuple[int, ...]:
        """Map a statement instance's loop values from the rewritten
        program's iteration space back to ``source``'s (ordered by each
        program's ``loop_vars(label)``), undoing each structural op in
        reverse: a tile drops the tile-loop value, a fuse adds the
        alignment offset back to the fused coordinate of the statements
        it moved."""
        vals = list(values)
        for kind, info in reversed(self._pullbacks):
            if label not in info:
                continue
            if kind == "tile":
                vals.pop(info[label])
            else:
                pos, delta = info[label]
                vals[pos] += delta
        return tuple(vals)


def parse_schedule(program: Program, spec: str) -> Schedule:
    """Parse a full spec — structural ``tile``/``fuse`` prefix plus
    linear suffix — against ``program``.

    Structural ops apply left to right, each resolved against the
    program the previous ones produced; the linear suffix then composes
    over the final program's layout.  A ``tile``/``fuse`` *after* a
    linear op is an error (the linear matrix would be over a layout the
    rewrite invalidates).

    The dependence matrix runs alongside: the source's analysis, then
    one derivation per ``tile`` (:func:`~repro.transform.tiling.tiled_deps`,
    no §3 run) and a real analysis per ``fuse``, whose legality test
    asks about loop pairs the fusion creates.  A derived matrix never
    enters the dependence memo: a memo entry is an analysis.
    """
    parts = spec_ops(spec)
    if not parts:
        raise ReproError("empty transformation spec")
    current = program
    deps: DependenceMatrix | None = None
    structural: list[str] = []
    pullbacks: list[tuple] = []
    legal = True
    split = 0
    for part in parts:
        m = _SPEC_RE.fullmatch(part)
        if not m:
            raise ReproError(f"cannot parse transformation {part.strip()!r}")
        name = m.group(1)
        if name not in STRUCTURAL_OPS:
            break
        args = [a.strip() for a in m.group(2).split(",") if a.strip()]
        try:
            if name == "tile":
                if len(args) != 2:
                    raise ReproError("tile takes (loop, size)")
                path = loop_path_by_var(current, args[0])
                labels = {s.label for s in _loop_at(current, path).statements()}
                size = _spec_int(args[1])
                new = strip_mine(current, path, size)
                if deps is None:
                    deps = analyze_dependences(current)
                deps = tiled_deps(current, path, size, deps, new)
                tvar = _loop_at(new, path).var
                pullbacks.append(
                    ("tile", {lbl: new.loop_vars(lbl).index(tvar) for lbl in labels})
                )
                current = new
            else:
                if len(args) != 1:
                    raise ReproError("fuse takes (loop)")
                path = loop_path_by_var(current, args[0])
                a = _loop_at(current, path)
                siblings = (
                    current.body if len(path) == 1
                    else _loop_at(current, path[:-1]).body
                )
                b = siblings[path[-1] + 1] if path[-1] + 1 < len(siblings) else None
                fused = fuse(current, path)  # raises when b is not fusable
                assert isinstance(b, Loop)
                delta = fuse_site_offset(a, b)
                assert delta is not None
                deps = analyze_dependences(fused)
                if not fuse_legal(current, path, fused=fused, fused_deps=deps):
                    legal = False
                pullbacks.append(
                    (
                        "fuse",
                        {
                            s.label: (fused.loop_vars(s.label).index(a.var), delta)
                            for s in b.statements()
                        },
                    )
                )
                current = fused
        except ReproError as exc:
            raise ReproError(f"in spec part {part.strip()!r}: {exc}") from exc
        structural.append(part.strip())
        split += 1
    rest = parts[split:]
    for part in rest:
        m = _SPEC_RE.fullmatch(part)
        if m and m.group(1) in STRUCTURAL_OPS:
            raise ReproError(
                f"structural op {part.strip()!r} must precede the linear "
                "transformations in a spec"
            )
    layout = Layout(current)
    if deps is None:
        deps = analyze_dependences(current)
    if rest:
        t = parse_spec(layout, "; ".join(rest))
    else:
        t = identity(layout)
    return Schedule(
        program, current, layout, deps, t,
        tuple(structural), legal, tuple(pullbacks),
    )
