"""Deterministic case sampling for the differential fuzzer.

Every case is a pure function of ``(master_seed, index)``: the local
:class:`random.Random` is seeded with the string ``"repro-fuzz:S:i"``
(string seeding hashes via SHA-512, *not* the per-process ``hash()``
salt), so a parallel ``--jobs`` run samples bit-identical cases to a
serial run and any single case can be re-derived from its coordinates
alone.

Programs come from :func:`repro.kernels.random_program` under a
weighted shape mix (perfect nests, deep imperfect nests, triangular
bounds, wide multi-statement bodies); transformations are either random
compositions of the elementary spec operations (validated against the
layout at sample time, so the reject rate stays low) or completion
requests for a random lead loop.  The ops are the draws of the
transformation catalogue (:data:`repro.transform.spec.CATALOGUE`), each
with the weight its record gives it; one of the skew record's draws is
the wavefront pair ``skew(a,b,f); permute(a,b)``.  A slice of the spec
stream carries a structural ``tile``/``fuse`` prefix, so the strip-mine
bookkeeping, the fusion legality test and the schedule pullback all sit
on the differential-testing path; half the ``tile`` draws go on to
reverse or skew the point loop, so the tiled program's *derived*
dependence matrix meets the legality test.  The ``stencil`` shape (a
time loop around an in-place shifted read) is the one the DOALL oracle
exists for.
"""

from __future__ import annotations

import random

from repro.fuzz.case import FuzzCase
from repro.instance import Layout
from repro.ir import program_to_str
from repro.kernels import random_program
from repro.transform.spec import CATALOGUE, KINDS, parse_part, parse_spec
from repro.transform.tiling import loop_path_by_var
from repro.util.errors import ReproError

__all__ = ["sample_case", "sample_spec", "SHAPE_WEIGHTS"]

#: shape -> relative weight of that structural class in the stream
SHAPE_WEIGHTS = (
    ("mixed", 4),
    ("perfect", 2),
    ("deep", 2),
    ("triangular", 2),
    ("multi", 2),
    ("stencil", 3),
)

#: fraction of cases that exercise the completion procedure instead of
#: an explicit spec
_COMPLETE_SHARE = 0.15

#: fraction of spec cases that try to lead with a structural tile/fuse
#: op (the draw is dropped when no site on the sampled program admits
#: one, so the realized share is a bit lower)
_STRUCTURAL_SHARE = 0.35


def _draws(structural: bool) -> list[tuple]:
    """The catalogue's ``(draw, weight)`` pairs of one class, in slot order."""
    slots = sorted(d for k in CATALOGUE if k.structural == structural for d in k.draws)
    return [(draw, weight) for _, weight, draw in slots]


#: the linear ops' weighted walk, and the structural ops' shares
_LINEAR_DRAWS = _draws(False)
_STRUCTURAL_DRAWS = _draws(True)


def _weighted(rng: random.Random, table):
    total = sum(w for _, w in table)
    x = rng.randrange(total)
    for name, w in table:
        x -= w
        if x < 0:
            return name
    return table[-1][0]  # pragma: no cover - unreachable


def sample_case(master_seed: int, index: int) -> FuzzCase:
    """The ``index``-th case of the stream for ``master_seed``."""
    rng = random.Random(f"repro-fuzz:{master_seed}:{index}")
    shape = _weighted(rng, SHAPE_WEIGHTS)
    program_seed = rng.randrange(2**31)
    program = random_program(
        program_seed,
        shape=shape,
        max_depth=rng.choice((2, 3, 3)),
        max_children=rng.choice((2, 3)),
        n_arrays=rng.choice((1, 2, 2)),
    )
    layout = Layout(program)
    n = rng.randint(3, 5)
    loops = [c.var for c in layout.loop_coords()]
    if loops and rng.random() < _COMPLETE_SHARE:
        return FuzzCase(
            program_src=program_to_str(program),
            kind="complete",
            lead=rng.choice(loops),
            params=(("N", n),),
            note=f"seed={master_seed} index={index} shape={shape}",
        )
    spec = sample_spec(layout, rng, program=program)
    return FuzzCase(
        program_src=program_to_str(program),
        kind="spec",
        spec=spec,
        params=(("N", n),),
        note=f"seed={master_seed} index={index} shape={shape}",
    )


def sample_spec(
    layout: Layout,
    rng: random.Random,
    max_ops: int = 3,
    program=None,
) -> str:
    """A random composition of 1..max_ops transformations, each
    validated against ``layout`` at sample time (invalid draws are
    re-rolled a bounded number of times, keeping runner-side rejects
    rare but still possible).

    When ``program`` is given, a :data:`_STRUCTURAL_SHARE` slice of
    draws leads with one ``tile``/``fuse`` op; the linear ops are then
    sampled over the *rewritten* program's layout and the whole spec is
    re-validated through :func:`parse_schedule`.  A fuse whose site
    exists but fails the Theorem-2 test is kept — those cases exercise
    the oracles' illegal-schedule side."""
    structural: list[str] = []
    work_layout = layout
    if program is not None and rng.random() < _STRUCTURAL_SHARE:
        for _ in range(6):
            op = _draw_structural(rng, layout)
            if op is None:
                break
            kind, args = parse_part(op)
            try:
                # the rewrite alone — the full step would also run
                # dependence analysis and the fusion legality test, which
                # sampling neither needs (illegal fuses are kept for the
                # oracles) nor can afford per draw
                path = loop_path_by_var(program, args[0])
                rewritten = kind.rewrite(program, path, *args[1:])
            except ReproError:
                continue  # no such site on this program; re-roll
            structural.append(op)
            work_layout = Layout(rewritten)
            break
    loops = [c.var for c in work_layout.loop_coords()]
    ops: list[str] = []
    if structural and kind is KINDS["tile"] and rng.random() < 0.5:
        # reverse or skew the point loop, so the tiled program's derived
        # dependences meet the legality test on the loop they describe
        point = args[0]
        others = [v for v in loops if v != point]
        op = (
            KINDS["skew"].render(point, rng.choice(others), rng.choice((-1, 1)))
            if others and rng.random() < 0.5 else KINDS["reverse"].render(point)
        )
        try:
            parse_spec(work_layout, op)
            ops.append(op)
        except ReproError:
            pass
    n_ops = rng.randint(1, max_ops) - len(structural)
    attempts = 0
    while len(ops) < n_ops and attempts < 8 * max_ops:
        attempts += 1
        op = _weighted(rng, _LINEAR_DRAWS)(rng, work_layout)
        if op is None or len(ops) + op.count(";") >= n_ops:
            continue  # nothing drawn, or a pair with one slot left
        # the structural prefix is already validated, so the linear
        # suffix only needs to parse over the *rewritten* layout —
        # re-running parse_schedule (and its dependence analysis) per
        # draw would dominate sampling time
        candidate = "; ".join(ops + [op])
        try:
            parse_spec(work_layout, candidate)
        except ReproError:
            continue
        ops.extend(op.split("; "))
    if not ops and not structural:
        # every draw failed to validate (e.g. single-loop program where
        # only align could apply); reversal is always expressible
        ops.append(f"reverse({rng.choice(loops)})" if loops else "reverse(I)")
    return "; ".join(structural + ops)


def _draw_structural(rng: random.Random, layout: Layout) -> str | None:
    """One structural op, or ``None`` on a loop-less layout: a uniform
    draw walks the records' shares, and a kind with no site on the
    program (no fusable pair) yields to the first (``tile``)."""
    if not layout.loop_coords():
        return None
    x, total, acc = rng.random(), sum(w for _, w in _STRUCTURAL_DRAWS), 0.0
    for draw, weight in _STRUCTURAL_DRAWS:
        acc += weight / total
        if x < acc:
            break
    return draw(rng, layout) or _STRUCTURAL_DRAWS[0][0](rng, layout)
