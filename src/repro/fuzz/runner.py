"""Batch fuzzing: sample N cases, fan out, shrink and serialize failures.

:func:`fuzz_run` drives a whole session.  With ``jobs`` > 1, case
*execution* fans out over a process pool (:mod:`repro.util.parallel_exec`,
whose only user this is): the case indices are dealt into hands, and
each worker re-derives its sampled cases from ``(master_seed, index)``.
Only injected cases travel to the workers; results come back as
:class:`CaseResult` objects without their oracle reports
(``oracle=None``), together with each worker's observability-metric
delta, and are re-assembled in index order so a parallel run is
bit-identical to a serial one.  Divergence *shrinking* and corpus
*writing* stay in the parent process, serially, in index order: the
corpus a run produces is deterministic in ``(seed, runs)`` regardless of
``--jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping

from repro.fuzz.case import CaseResult, FuzzCase, run_case
from repro.fuzz.corpus import expected_for, save_repro
from repro.fuzz.sample import sample_case
from repro.fuzz.shrink import shrink_case
from repro.obs import counter, event, span
from repro.util.parallel_exec import (
    capture_counters, chunk_round_robin, map_in_processes, merge_metrics,
    resolve_jobs,
)

__all__ = ["fuzz_run", "FuzzSession"]


@dataclass
class FuzzSession:
    """Everything a fuzz run produced."""

    runs: int
    seed: int
    verdict_counts: dict[str, int] = field(default_factory=dict)
    divergences: list[CaseResult] = field(default_factory=list)
    repro_paths: list[Path] = field(default_factory=list)
    shrink_steps: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        lines = [f"fuzz: {self.runs} runs, seed {self.seed}"]
        for verdict in sorted(self.verdict_counts):
            lines.append(f"  {verdict:24s} {self.verdict_counts[verdict]}")
        lines.append(
            f"  divergences: {len(self.divergences)}"
            + (f" (shrunk in {self.shrink_steps} steps)" if self.divergences else "")
        )
        for p in self.repro_paths:
            lines.append(f"  repro: {p}")
        return "\n".join(lines)


def fuzz_run(
    runs: int,
    seed: int,
    *,
    jobs: int | None = None,
    corpus_dir: str | Path | None = None,
    minimize: bool = True,
    inject: Mapping[int, FuzzCase] | None = None,
    strict_illegal: bool = False,
    max_shrink_attempts: int = 400,
    progress: Callable[[int, CaseResult], None] | None = None,
    backends: tuple[str, ...] = (),
    service: str = "",
    symbolic: bool = False,
) -> FuzzSession:
    """Run ``runs`` sampled cases; shrink and serialize any divergence.

    ``inject`` maps case indices to hand-built cases that replace the
    sampled ones (the CLI's ``--inject-illegal`` puts a known-illegal,
    claimed-legal case at index 0 to exercise the failure path).

    ``backends`` arms the cross-backend differential oracle: every case
    additionally executes its source (and, when legal, generated)
    program through the named backends and compares against the
    reference interpreter; disagreements are ``divergence-backend``.

    ``service`` arms the warm-daemon oracle: every case's source program
    is also sent to the ``repro serve`` daemon at this URL, and its
    analyze/run outputs must be byte-identical to the local pipeline;
    disagreements are ``divergence-service`` (docs/SERVICE.md).

    ``symbolic`` arms the fractal symbolic oracle on every Theorem-2
    rejection: certified schedules are forced through codegen and
    cross-checked for output equivalence (``symbolic-legal`` on success,
    ``divergence-symbolic`` on a contradicted certificate); see
    docs/SYMBOLIC.md.
    """
    inject = dict(inject or {})
    backends = tuple(backends)
    session = FuzzSession(runs=runs, seed=seed)
    with span("fuzz.run", runs=runs, seed=seed):
        results = _run_all(
            runs, seed, inject, strict_illegal, resolve_jobs(jobs), backends,
            service, symbolic,
        )
        for index, result in enumerate(results):
            session.verdict_counts[result.verdict] = (
                session.verdict_counts.get(result.verdict, 0) + 1
            )
            # per-case provenance is emitted here in the parent, in index
            # order, so a --jobs run records the same events as a serial one
            event(
                "fuzz",
                "reject" if result.divergent else "accept",
                result.verdict,
                index=index,
                case_kind=result.case.kind,
                detail=result.detail or "(none)",
            )
            if progress is not None:
                progress(index, result)
            if not result.divergent:
                continue
            minimal, steps = result.case, 0
            if minimize:
                minimal, steps = _minimize(
                    result, strict_illegal, max_shrink_attempts
                )
            session.shrink_steps += steps
            session.divergences.append(result)
            if corpus_dir is not None:
                path = save_repro(
                    corpus_dir,
                    minimal,
                    expect=expected_for(result),
                    detail=result.detail,
                    seed=seed,
                    shrink_steps=steps,
                )
                session.repro_paths.append(path)
    return session


def _minimize(result: CaseResult, strict_illegal: bool,
              max_attempts: int) -> tuple[FuzzCase, int]:
    """Shrink a divergent case, preserving its failure verdict."""
    target = result.verdict

    def still_failing(candidate: FuzzCase) -> bool:
        return run_case(candidate, strict_illegal=strict_illegal).verdict == target

    return shrink_case(result.case, still_failing, max_attempts=max_attempts)


# ---------------------------------------------------------------------------
# parallel execution
# ---------------------------------------------------------------------------

def _case_at(
    seed: int, index: int, inject: Mapping[int, FuzzCase],
    backends: tuple[str, ...] = (), service: str = "",
    symbolic: bool = False,
) -> FuzzCase:
    case = inject[index] if index in inject else sample_case(seed, index)
    if backends and not case.backends:
        case = case.with_(backends=backends)
    if service and not case.service:
        case = case.with_(service=service)
    if symbolic and case.kind == "spec" and not case.symbolic:
        case = case.with_(symbolic=True)
    return case


def _run_all(
    runs: int,
    seed: int,
    inject: dict[int, FuzzCase],
    strict_illegal: bool,
    jobs: int,
    backends: tuple[str, ...],
    service: str = "",
    symbolic: bool = False,
) -> list[CaseResult]:
    if jobs <= 1 or runs < 2:
        return [
            run_case(
                _case_at(seed, i, inject, backends, service, symbolic),
                strict_illegal=strict_illegal,
            )
            for i in range(runs)
        ]
    chunks = chunk_round_robin(runs, jobs)
    tasks = [
        (seed, chunk, inject, strict_illegal, backends, service, symbolic)
        for chunk in chunks
    ]
    by_index: dict[int, CaseResult] = {}
    for chunk_results, metrics in map_in_processes(_run_chunk, tasks, jobs=jobs):
        merge_metrics(metrics)
        by_index.update(chunk_results)
    counter("fuzz.parallel_chunks", len(chunks))
    return [by_index[i] for i in range(runs)]


def _run_chunk(task: tuple) -> tuple[list[tuple[int, CaseResult]], dict]:
    """Process-pool worker: run one hand of case indices.

    Returns ``(results, metrics_payload)``: the results drop their
    oracle reports (those stay worker-side), and the metrics payload
    bundles counter/gauge/histogram deltas for the parent to merge."""
    seed, indices, inject, strict_illegal, backends, service, symbolic = task
    out: list[tuple[int, CaseResult]] = []
    with capture_counters() as cap:
        for index in indices:
            case = _case_at(seed, index, inject, backends, service, symbolic)
            result = run_case(case, strict_illegal=strict_illegal)
            out.append((index, replace(result, oracle=None)))
    return out, cap.metrics
