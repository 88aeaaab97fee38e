"""Value-based (dynamic) refinement of dependence vectors.

The paper's displayed matrices contain exact distances (e.g. the ``1``
leading its simplified-Cholesky column ``[1,-1,1,0]``) where sound
memory-based analysis can only report ``+``: the paper's number is the
*value-based* distance — the gap to the **last** write of the location,
not to every earlier write.  Full static value-based analysis is
Feautrier's array dataflow; this module provides the dynamic analogue:
run the program on sample parameter values, read the value-based
dependences (last-writer flow, readers-to-next-write anti, consecutive
output) off the trace, and intersect the per-coordinate hulls with the
static intervals.

The refined matrix is for *reporting and comparison against the paper*;
it is exact for the sampled sizes and a heuristic beyond them, so
legality checking keeps using the conservative static matrix.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Mapping, Sequence

from repro.dependence.depvector import DependenceMatrix, DepVector
from repro.dependence.entry import NEG_INF, POS_INF, DepEntry
from repro.instance.layout import Layout
from repro.instance.vectors import DynamicInstance, instance_vector
from repro.interp.equivalence import ground_truth_kinded
from repro.interp.executor import execute
from repro.ir.ast import Program
from repro.obs import timed

__all__ = ["observed_hulls", "refine_dependences"]


def observed_diffs(
    program: Program, params: Mapping[str, int], layout: Layout | None = None
) -> dict[tuple[str, str, str], list[tuple[int, ...]]]:
    """Per-(src,dst,kind) instance-vector differences of the observed
    value-based dependences for one program run."""
    layout = layout or Layout(program)
    _, trace = execute(program, params, trace=True)
    assert trace is not None

    def as_vec(rec):
        order = [c.var for c in layout.surrounding_loop_coords(rec.label)]
        d = DynamicInstance(rec.label, tuple(rec.env[v] for v in order))
        return instance_vector(layout, d)

    vec_cache: dict[int, tuple[int, ...]] = {}
    out: dict[tuple[str, str, str], list[tuple[int, ...]]] = defaultdict(list)
    for a, b, kind in ground_truth_kinded(trace):
        ra, rb = trace.records[a], trace.records[b]
        va = vec_cache.get(a)
        if va is None:
            va = vec_cache[a] = as_vec(ra)
        vb = vec_cache.get(b)
        if vb is None:
            vb = vec_cache[b] = as_vec(rb)
        out[(ra.label, rb.label, kind)].append(
            tuple(y - x for x, y in zip(va, vb))
        )
    return dict(out)


def observed_hulls(
    program: Program, params: Mapping[str, int], layout: Layout | None = None
) -> dict[tuple[str, str, str], list[DepEntry]]:
    """Per-(src,dst,kind) coordinate hulls of the observed value-based
    dependence differences for one program run."""
    hulls: dict[tuple[str, str, str], list[DepEntry]] = {}
    for key, diffs in observed_diffs(program, params, layout).items():
        for diff in diffs:
            if key not in hulls:
                hulls[key] = [DepEntry.const(x) for x in diff]
            else:
                hulls[key] = [
                    h.hull(DepEntry.const(x)) for h, x in zip(hulls[key], diff)
                ]
    return hulls


def _intersect(a: DepEntry, b: DepEntry) -> DepEntry:
    lo = b.lo if a.lo == NEG_INF else (a.lo if b.lo == NEG_INF else max(a.lo, b.lo))
    hi = b.hi if a.hi == POS_INF else (a.hi if b.hi == POS_INF else min(a.hi, b.hi))
    return DepEntry(lo, hi)


@timed("dependence.refine", attr_fn=lambda program, *a, **kw: {"program": program.name})
def refine_dependences(
    program: Program,
    deps: DependenceMatrix,
    samples: Sequence[Mapping[str, int]] = ({"N": 6}, {"N": 9}),
) -> DependenceMatrix:
    """Intersect static intervals with the union of observed value-based
    hulls over the sample runs.

    Dependences never observed in any sample keep their static entries;
    distinct kinds refine independently, so the paper's value-based flow
    distances surface even when a wider anti dependence shares the same
    statement pair.
    """
    layout = deps.layout
    merged: dict[tuple[str, str, str], list[tuple[int, ...]]] = defaultdict(list)
    for params in samples:
        for key, diffs in observed_diffs(program, params, layout).items():
            merged[key].extend(diffs)

    refined = DependenceMatrix(layout)
    for d in deps:
        key = (d.src, d.dst, d.kind)
        # only diffs this column actually summarizes refine it
        covered = [
            diff
            for diff in merged.get(key, ())
            if all(e.contains(x) for e, x in zip(d.entries, diff))
        ]
        if not covered:
            refined.add(d)
            continue
        hull = [DepEntry.const(x) for x in covered[0]]
        for diff in covered[1:]:
            hull = [h.hull(DepEntry.const(x)) for h, x in zip(hull, diff)]
        # Only sample-invariant constants are trustworthy beyond the
        # sampled sizes; anything else keeps the sound static interval.
        entries = tuple(
            h if h.is_constant() else a for a, h in zip(d.entries, hull)
        )
        refined.add(DepVector(d.src, d.dst, entries, d.kind, d.level, d.array))
    return refined
