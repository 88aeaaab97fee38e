"""Searching for *desirable* transformations (paper §1/§7).

The paper's argument for the linear framework is that it makes the
search for good transformations cheap: candidates are rows/matrices,
legality is a matrix test, and completion fills in the rest.  This
module closes the loop with the performance model: enumerate lead
choices, complete each to a legal matrix, generate code, and rank the
variants by simulated cache misses.

This is the whole compiler pipeline the paper gestures at, in one
function call::

    best = search_loop_orders(cholesky(), {"N": 30})
    print(best[0].program)

Historically this module owned the candidate construction; it is now a
thin compatibility shim over the :mod:`repro.tune` subsystem, which
generalizes the lead-loop scan to a full beam search over skews,
reversals, reorderings and structural variants (docs/AUTOTUNING.md).
``search_loop_orders`` keeps its interface, ranking and counters, and
delegates lead completion to :func:`repro.tune.space.lead_candidate`
and measured timing to :func:`repro.backend.runtime.time_backend`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.codegen.generate import GeneratedProgram, generate_code
from repro.dependence.analyze import analyze_dependences
from repro.dependence.depvector import DependenceMatrix
from repro.instance.layout import Layout
from repro.interp.cache import CacheConfig, program_addresses, simulate_cache
from repro.interp.equivalence import check_equivalence
from repro.interp.executor import ArrayStore
from repro.ir.ast import Program
from repro.obs import counter, span, timed

__all__ = ["SearchResult", "search_loop_orders"]


@dataclass
class SearchResult:
    """One legal loop-order variant, ranked by the cache model (or, when
    the search ran with a ``backend``, by measured wall clock)."""

    lead_var: str
    program: Program
    generated: GeneratedProgram
    accesses: int
    misses: int
    seconds: float | None = None

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def __str__(self) -> str:
        timing = f", {self.seconds * 1e3:.2f} ms" if self.seconds is not None else ""
        return (
            f"lead={self.lead_var}: {self.misses}/{self.accesses} misses "
            f"({self.miss_rate:.2%}{timing})"
        )


@timed("analysis.search_orders", attr_fn=lambda program, *a, **kw: {"program": program.name})
def search_loop_orders(
    program: Program,
    params: Mapping[str, int],
    *,
    cache: CacheConfig = CacheConfig(size_bytes=4 * 1024, line_bytes=64, ways=2),
    deps: DependenceMatrix | None = None,
    leads: Sequence[str] | None = None,
    verify: bool = True,
    backend: str | None = None,
    repeat: int = 3,
) -> list[SearchResult]:
    """Enumerate lead-loop choices, keep the legal completions, and rank
    the generated variants by simulated cache misses (best first).

    ``backend`` switches the ranking from the simulated-cache model to
    *measured* wall clock: each variant is additionally timed through
    :func:`repro.backend.runtime.time_backend` with that backend (the
    median of at least three repetitions, so a single noisy run cannot
    reorder the ranking) and variants are ordered by seconds instead of
    misses.  The cache statistics are still collected and reported.

    ``leads`` restricts the candidate lead loop variables (default: all
    loop coordinates).  With ``verify`` (default) every variant is also
    checked semantically equivalent to the source on ``params`` before
    being ranked — an illegal variant slipping through would be a bug,
    so this doubles as a self-check.
    """
    from repro.tune.space import lead_candidate, make_context

    layout = Layout(program)
    if deps is None:
        deps = analyze_dependences(program, layout=layout)
    ctx = make_context(program, deps, layout=layout)
    candidates = (
        [layout.loop_coord_by_var(v) for v in leads]
        if leads is not None
        else layout.loop_coords()
    )
    params = dict(params)
    # One shared initial-state snapshot per timed search.  No variant may
    # mutate it — every run copies initial arrays into a fresh store — and
    # the write=False flag enforces that invariant.
    if backend is not None:
        base = ArrayStore(program, params).snapshot()
        for arr in base.values():
            arr.setflags(write=False)

    def evaluate(coord) -> SearchResult | None:
        counter("search.leads_tried")
        with span("search.variant", lead=coord.var):
            cand = lead_candidate(ctx, coord)
            if cand is None:
                counter("search.leads_rejected")
                return None
            generated = generate_code(program, cand.matrix, deps)
        if verify:
            rep = check_equivalence(
                program, generated.program, params, env_map=generated.env_map()
            )
            if not rep["ok"]:  # pragma: no cover - legality guarantees this
                return None
        stats = simulate_cache(program_addresses(generated.program, params)[0], cache)
        seconds = None
        if backend is not None:
            # Local import: repro.backend depends on repro.analysis for
            # its DOALL verdicts, so the dependency cannot also point the
            # other way at module scope.
            from repro.backend.runtime import time_backend

            seconds = time_backend(
                generated.program, params, arrays=base,
                backend=backend, repeat=repeat,
            )
        counter("search.variants_ranked")
        return SearchResult(
            coord.var, generated.program, generated, stats.accesses, stats.misses, seconds
        )

    results = [r for r in map(evaluate, candidates) if r is not None]
    if backend is not None:
        results.sort(key=lambda r: (r.seconds, r.lead_var))
    else:
        results.sort(key=lambda r: (r.misses, r.lead_var))
    return results
