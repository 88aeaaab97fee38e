"""The autotuning driver: beam search, measurement, cache round-trip.

The pipeline per ``tune()`` call::

    cache lookup ── hit ──────────────────────────────► TuneResult
         │ miss
         ▼
    enumerate (space.py) ─► legality filter (Theorem 2) ─► static score
         │                        │ illegal: pruned,          (cost.py)
         │                        ▼ never executed
         │                     discarded
         ▼
    beam extension × depth ─► top-K survivors ─► measure (median wall
         │                                       clock, backend/runtime)
         │                                       + reference cross-check
         ▼
    winner ─► persist (store.py) ─► TuneResult

Two invariants the tests pin:

* **nothing illegal ever executes** — every candidate is
  legality-checked *before* the cost model interprets it and before the
  measured backend runs it; ``TuneResult.executed`` is the audit trail
  (program text + matrix of everything that ran) so the property tests
  can re-verify each entry independently.  With ``symbolic=True`` the
  gate widens: a Theorem-2 rejection may instead carry a fractal-oracle
  certificate (``legality="symbolic"``, docs/SYMBOLIC.md) — certified,
  not unchecked;
* **the tuned schedule is never slower than the default order** — the
  default order is itself measured as a candidate, so the winner is at
  worst the program the user already had.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.backend.runtime import MIN_TIMING_REPS, run as backend_run, time_backend
from repro.codegen.generate import generate_code
from repro.codegen.simplify import simplify_program
from repro.dependence.analyze import analyze_dependences
from repro.interp.equivalence import outputs_close
from repro.interp.executor import ArrayStore, execute
from repro.ir.ast import Program
from repro.ir.parser import parse_program
from repro.ir.printer import program_to_str
from repro.legality.check import check_legality
from repro.linalg.intmat import IntMatrix
from repro.obs import counter, event, histogram, span, timed
from repro.tune.cost import CostReport, realize, score_candidate
from repro.tune.ranking import rank_report
from repro.tune.space import (
    Candidate, cap_candidates, compose_candidate, elementary_candidates,
    enumerate_candidates, resolve_max_candidates,
)
from repro.tune.store import TuneStore
from repro.util.errors import ReproError, TuneError

__all__ = [
    "TunedRow", "TuneResult", "tune", "apply_entry", "load_tuned",
    "DEFAULT_BACKEND",
]

#: Measured ranking happens on the fastest backend by default; the
#: winner is whatever wins *there*, wall-clock, not in the model.
DEFAULT_BACKEND = "source-vec"

#: Default real-size binding when the caller provides none.  Large
#: enough that loop-order effects clear measurement noise on the
#: lowered backends (at ~40 the bundled kernels' variants are within
#: jitter of each other).
DEFAULT_PARAM = 96

#: Interleaved measurement rounds per schedule (see the measurement
#: stage in :func:`tune`); each round contributes one median-of-
#: ``repeat`` sample per schedule.
MEASURE_ROUNDS = 3

#: A schedule whose first-round sample exceeds the round's fastest by
#: this factor is excluded from later rounds (its single sample stands):
#: at real sizes a bad order can cost 30x the good one, and re-timing it
#: twice more would dominate tune wall-clock without changing its rank.
SLOW_DROP_FACTOR = 8.0

#: Measured-seconds band treated as a tie: within it the winner is the
#: candidate the static model ranks highest, not the one that happened
#: to sample fastest.  Keeps the reported winner stable across runs on
#: schedules the machine cannot distinguish.
TIE_BAND = 1.03

#: Extra beam/measurement slots reserved for the best *blocked* (tiled
#: two-row) candidates when tiling is enabled.  The locality model runs
#: at model sizes where every working set fits cache, so blocked
#: schedules — whose payoff only exists at real sizes — would otherwise
#: never survive static ranking to be measured at all.
BLOCKED_SLOTS = 2

#: Extra beam/measurement slots reserved for the best *wavefront* (skew
#: that exposes a DOALL loop) candidates when tuning for the
#: ``source-par`` backend.  The static cost model knows nothing about
#: parallel execution, so skew-then-parallelize schedules — whose whole
#: payoff is the worker pool and the flat-slice fronts — would otherwise
#: never survive ranking to be measured.
WAVEFRONT_SLOTS = 2

#: Extra beam/measurement slots reserved for the best *rescued*
#: (Theorem-2-illegal, symbolically certified) candidates when
#: ``tune --symbolic`` is on.  Rescued schedules are typically
#: reassociated reductions whose static score ties the legal orders, so
#: without a reserved slot they would rarely survive ranking and the
#: rescue would never be measured (or cross-checked).
SYMBOLIC_SLOTS = 1

#: Parameter cap for the reference cross-check in ``cross_check="model"``
#: mode (full-size interpretation is infeasible past N≈128: the
#: reference interpreter visits every statement instance).
CROSS_CHECK_CAP = 64


@dataclass
class TunedRow:
    """One measured (or cache-reloaded) schedule."""

    description: str
    kind: str
    steps: tuple[str, ...]
    score: float | None
    seconds: float | None
    ok: bool | None          # outputs match the reference interpreter
    error: str = ""
    baseline: bool = False   # the untransformed default order
    legality: str = "theorem-2"   # "theorem-2" | "symbolic" (rescued)
    candidate: Candidate | None = field(default=None, repr=False, compare=False)

    @property
    def failed(self) -> bool:
        return bool(self.error) or self.ok is False

    def to_json(self, *, winner: bool = False) -> dict:
        return {
            "description": self.description,
            "kind": self.kind,
            "steps": list(self.steps),
            "score": self.score,
            "seconds": self.seconds,
            "ok": self.ok,
            "error": self.error,
            "baseline": self.baseline,
            "legality": self.legality,
            "winner": winner,
        }


@dataclass
class TuneResult:
    """Outcome of one ``tune()`` call (searched or cache-served)."""

    program: Program
    params: dict[str, int]
    backend: str
    rows: list[TunedRow]
    best: TunedRow | None
    baseline_seconds: float | None
    from_cache: bool
    cache_key: str
    cache_path: str | None = None
    enumerated: int = 0
    pruned: int = 0
    scored: int = 0
    executed: list[dict] = field(default_factory=list)
    entry: dict | None = None

    @property
    def speedup(self) -> float | None:
        """Measured default-order seconds over winner seconds."""
        if self.best is None or not self.best.seconds or not self.baseline_seconds:
            return None
        return self.baseline_seconds / self.best.seconds

    @property
    def ok(self) -> bool:
        """No error rows, no cross-check failures, and a winner exists."""
        return self.best is not None and not any(r.failed for r in self.rows)


def _assess(cand: Candidate, params: Mapping[str, int], audit: list[dict],
            symbolic: bool = False):
    """Legality-gate then statically score one candidate.

    Returns ``("scored", cand, cost)``, ``("rescued", cand, cost)`` for
    a Theorem-2-illegal candidate the fractal symbolic oracle certified
    (``symbolic=True`` only), ``("pruned", ...)`` for illegal candidates
    (never executed), or ``("infeasible", ...)`` when codegen or the
    model execution fails.
    """
    report = check_legality(cand.context.layout, cand.matrix, cand.context.deps)
    rescued = False
    if not report.legal and symbolic:
        rescued = _symbolic_rescue(cand)
    if not report.legal and not rescued:
        counter("tune.candidates.pruned")
        bad = report.violations
        event(
            "tune", "reject",
            "pruned by the Theorem-2 legality test; never executed",
            candidate=cand.description,
            pruned_by=("; ".join(str(d) for d in bad) or "block structure"),
        )
        return ("pruned", cand, None)
    try:
        audit.append(_audit_record(cand, "score"))
        cost = score_candidate(cand, params, require_legal=not rescued)
    except ReproError as exc:
        counter("tune.candidates.infeasible")
        event(
            "tune", "reject",
            "codegen or model execution failed; candidate infeasible",
            candidate=cand.description, detail=str(exc),
        )
        return ("infeasible", cand, None)
    return ("rescued" if rescued else "scored", cand, cost)


def _symbolic_rescue(cand: Candidate) -> bool:
    """Appeal a Theorem-2 rejection to the fractal symbolic oracle
    (``tune --symbolic``).  True only when the oracle *certifies* the
    candidate's generated code equivalent to its context program; every
    rescued candidate is additionally cross-checked against the
    reference interpreter at measurement time, so a wrong certificate
    still fails loudly before the winner persists."""
    from repro.symbolic import prove_equivalent
    from repro.util.errors import SymbolicError

    ctx = cand.context
    try:
        transformed = realize(cand, require_legal=False)
        outcome = prove_equivalent(
            ctx.program, transformed, spec=cand.description
        )
    except (SymbolicError, ReproError):
        return False
    if not outcome.legal:
        return False
    counter("tune.candidates.rescued")
    event(
        "tune", "accept",
        "Theorem-2-illegal but certified by the fractal symbolic oracle",
        candidate=cand.description,
        certificate=outcome.certificate.summary(),
    )
    return True


def _audit_record(cand: Candidate, stage: str) -> dict:
    return {
        "stage": stage,
        "description": cand.description,
        "program": program_to_str(cand.context.program),
        "matrix": [list(r) for r in cand.matrix.rows()],
        "steps": list(cand.context.origin + cand.steps),
    }


def _rank_key(item: tuple[Candidate, CostReport]):
    cand, cost = item
    return (-cost.score, cand.description)


def _is_blocked(cand: Candidate) -> bool:
    return cand.context.is_tiled and "blocked" in cand.kind


def _is_wavefront(cand: Candidate) -> bool:
    return "wavefront" in cand.kind


def _stratified(
    ranked: list[tuple[Candidate, CostReport]],
    width: int,
    blocked_slots: int,
    wavefront_slots: int = 0,
    symbolic_slots: int = 0,
    rescued_keys: frozenset | set = frozenset(),
) -> list[tuple[Candidate, CostReport]]:
    """The top ``width`` candidates, plus up to ``blocked_slots`` of the
    best blocked candidates when none made the cut on score alone, plus
    up to ``wavefront_slots`` of the best wavefront candidates likewise
    (both strata are cost-model blind spots: cache payoff and parallel
    payoff respectively), plus up to ``symbolic_slots`` of the best
    symbolically rescued candidates (whose payoff — a legal-looking
    schedule Theorem 2 cannot admit — the score cannot express at
    all)."""
    head = ranked[:width]
    if blocked_slots and not any(_is_blocked(c) for c, _ in head):
        head = head + [
            item for item in ranked[width:] if _is_blocked(item[0])
        ][:blocked_slots]
    if wavefront_slots and not any(_is_wavefront(c) for c, _ in head):
        taken = {id(item[0]) for item in head}
        head = head + [
            item for item in ranked
            if _is_wavefront(item[0]) and id(item[0]) not in taken
        ][:wavefront_slots]
    if symbolic_slots and not any(
        c.canonical_key() in rescued_keys for c, _ in head
    ):
        taken = {id(item[0]) for item in head}
        head = head + [
            item for item in ranked
            if item[0].canonical_key() in rescued_keys
            and id(item[0]) not in taken
        ][:symbolic_slots]
    return head


@timed("tune.tune", attr_fn=lambda program, *a, **kw: {"program": program.name})
def tune(
    program: Program,
    params: Mapping[str, int] | None = None,
    *,
    backend: str = DEFAULT_BACKEND,
    beam_width: int = 4,
    depth: int = 2,
    top_k: int = 3,
    repeat: int = MIN_TIMING_REPS,
    store: TuneStore | None = None,
    use_cache: bool = True,
    force: bool = False,
    include_structural: bool = True,
    tile_sizes: Sequence[int] | None = None,
    max_candidates: int | None = None,
    cross_check: str = "full",
    symbolic: bool = False,
) -> TuneResult:
    """Find the fastest legal schedule of ``program`` at ``params``.

    Beam search over the :mod:`repro.tune.space` candidates: level 1 is
    the full enumeration, deeper levels compose beam survivors with one
    more elementary transformation.  Candidates are pruned by the
    Theorem-2 legality test *before* any execution, ranked statically by
    the :mod:`repro.tune.cost` model, and the ``top_k`` survivors (plus
    the default order) are measured on ``backend`` with the shared
    median-of-``repeat`` timer and cross-checked against the reference
    interpreter.  Results persist in ``store`` (default:
    ``.repro_tune/``); a warm call with the same (program, params,
    version) key returns without searching.

    ``force`` re-searches even on a cache hit (and overwrites the
    entry); ``use_cache=False`` skips the store entirely.

    ``tile_sizes`` enables strip-mined variants (``--tile`` passes the
    default ladder); when set, the beam and the measured set reserve
    :data:`BLOCKED_SLOTS` for the best blocked candidates (see
    :func:`_stratified`).  ``max_candidates`` caps every enumeration
    level (default: ``REPRO_TUNE_MAX`` or 96), emitting a
    ``tune/truncated`` event when the cap bites.  ``cross_check`` is
    ``"full"`` (reference interpreter at the real sizes) or ``"model"``
    (reference at sizes capped to :data:`CROSS_CHECK_CAP` — required
    past N≈128, where full interpretation is infeasible; timing still
    happens at the real sizes).

    ``symbolic`` widens the search space: candidates the Theorem-2 test
    rejects are appealed to the fractal symbolic oracle
    (docs/SYMBOLIC.md), and certified ones — reassociated reductions,
    typically — re-enter the beam marked ``legality="symbolic"``.
    Nothing *uncertified* ever executes, and every rescued candidate is
    still cross-checked against the reference interpreter before it can
    win.
    """
    if cross_check not in ("full", "model"):
        raise TuneError(f"cross_check must be 'full' or 'model', got {cross_check!r}")
    params = dict(params) if params else {p: DEFAULT_PARAM for p in program.params}
    params = {k: int(v) for k, v in params.items()}
    key = TuneStore.key_for(program, params)
    store = store if store is not None else TuneStore()

    if use_cache and not force:
        entry = store.get(key)
        if entry is not None:
            counter("tune.cache.hit")
            return _result_from_entry(program, params, key, store, entry)
    counter("tune.cache.miss")

    audit: list[dict] = []
    cap = resolve_max_candidates(max_candidates)
    blocked_slots = BLOCKED_SLOTS if tile_sizes else 0
    wavefront_slots = WAVEFRONT_SLOTS if backend == "source-par" else 0
    symbolic_slots = SYMBOLIC_SLOTS if symbolic else 0
    with span("tune.search", program=program.name, backend=backend):
        candidates = enumerate_candidates(
            program,
            include_structural=include_structural,
            tile_sizes=tile_sizes,
            max_candidates=max_candidates,
            wavefront=bool(wavefront_slots),
        )
        enumerated = len(candidates)
        counter("tune.candidates.enumerated", enumerated)
        root_identity = candidates[0]  # identity of the original context

        outcomes = [_assess(c, params, audit, symbolic) for c in candidates]
        pruned = sum(1 for s, *_ in outcomes if s == "pruned")
        pool: dict[tuple, tuple[Candidate, CostReport]] = {}
        rescued_keys: set[tuple] = set()
        for status, cand, cost in outcomes:
            if status in ("scored", "rescued"):
                pool[cand.canonical_key()] = (cand, cost)
                if status == "rescued":
                    rescued_keys.add(cand.canonical_key())

        beam = _stratified(
            sorted(pool.values(), key=_rank_key), beam_width, blocked_slots,
            wavefront_slots, symbolic_slots, rescued_keys,
        )
        elem_cache: dict[int, list[Candidate]] = {}
        for _level in range(1, max(1, depth)):
            extensions: list[Candidate] = []
            for cand, _cost in beam:
                ctx_id = id(cand.context)
                if ctx_id not in elem_cache:
                    elems = elementary_candidates(cand.context)
                    if cand.context.is_tiled:
                        # blocking is strip-mine + interchange; skews and
                        # reversals of a strip-mined nest only multiply
                        # the (already larger) space without moving the
                        # tile loop, so tiled contexts extend by loop
                        # interchange and statement reorder alone
                        elems = [
                            s for s in elems if s.kind in ("permute", "reorder")
                        ]
                    elem_cache[ctx_id] = elems
                for step in elem_cache[ctx_id]:
                    ext = compose_candidate(cand, step)
                    if ext.canonical_key() not in pool:
                        extensions.append(ext)
            # dedupe among the new extensions themselves
            fresh: dict[tuple, Candidate] = {}
            for ext in extensions:
                fresh.setdefault(ext.canonical_key(), ext)
            level_cands = cap_candidates(
                list(fresh.values()), cap, f"beam-level-{_level}"
            )
            outcomes = [_assess(c, params, audit, symbolic) for c in level_cands]
            enumerated += len(level_cands)
            counter("tune.candidates.enumerated", len(level_cands))
            pruned += sum(1 for s, *_ in outcomes if s == "pruned")
            for status, cand, cost in outcomes:
                if status in ("scored", "rescued"):
                    pool[cand.canonical_key()] = (cand, cost)
                    if status == "rescued":
                        rescued_keys.add(cand.canonical_key())
            beam = _stratified(
                sorted(pool.values(), key=_rank_key), beam_width, blocked_slots,
                wavefront_slots, symbolic_slots, rescued_keys,
            )

        ranked = sorted(pool.values(), key=_rank_key)
        survivors = _stratified(ranked, max(1, top_k), blocked_slots,
                                wavefront_slots, symbolic_slots, rescued_keys)
        cut = {c.canonical_key() for c, _ in survivors}
        for rank, (cand, cost) in enumerate(ranked, 1):
            selected = cand.canonical_key() in cut
            event(
                "tune", "accept" if selected else "info",
                "survived beam search; selected for measurement"
                if selected
                else "scored but below the measurement cut",
                candidate=cand.description,
                score=f"{cost.score:.6f}",
                cost_rank=rank,
            )

    # -- measurement -------------------------------------------------------
    # Interleaved rounds: each round times every schedule once (rotating
    # the visit order), and a schedule's ranking time is the median of
    # its per-round medians.  Back-to-back sequential timing would let a
    # slow drift in machine load (thermal throttle, a neighbour process)
    # masquerade as a schedule difference; rotation cancels both drift
    # and position bias.
    identity_key = root_identity.canonical_key()
    identity_cost = pool.get(identity_key)
    sched: list[tuple[TunedRow, Program]] = []
    rows: list[TunedRow] = []
    with span("tune.measure", program=program.name, n=len(survivors) + 1):
        base = ArrayStore(program, params).snapshot()
        for arr in base.values():
            arr.setflags(write=False)
        if cross_check == "model":
            check_params = {k: min(v, CROSS_CHECK_CAP) for k, v in params.items()}
        else:
            check_params = params
        if check_params == params:
            check_base = base
        else:
            check_base = ArrayStore(program, check_params).snapshot()
            for arr in check_base.values():
                arr.setflags(write=False)
        ref_out = execute(program, check_params, arrays=check_base)[0].snapshot()

        audit.append(_audit_record(root_identity, "measure"))
        baseline_row = TunedRow(
            "default order", "identity", (),
            identity_cost[1].score if identity_cost else None,
            None, None, baseline=True, candidate=root_identity,
        )
        rows.append(baseline_row)
        sched.append((baseline_row, program))

        for cand, cost in survivors:
            if cand.canonical_key() == identity_key:
                continue  # already measured as the baseline
            is_rescued = cand.canonical_key() in rescued_keys
            row = TunedRow(
                cand.description, cand.kind, cand.context.origin + cand.steps,
                cost.score, None, None, candidate=cand,
                legality="symbolic" if is_rescued else "theorem-2",
            )
            rows.append(row)
            try:
                tuned_prog = realize(cand, require_legal=not is_rescued)
            except ReproError as exc:
                counter("tune.measure_errors")
                row.error = str(exc)
                continue
            audit.append(_audit_record(cand, "measure"))
            sched.append((row, tuned_prog))

        samples: dict[int, list[float]] = {id(r): [] for r, _ in sched}
        broken: set[int] = set()
        slow: set[int] = set()
        for rnd in range(MEASURE_ROUNDS):
            shift = rnd % len(sched)
            for row, prog_ in sched[shift:] + sched[:shift]:
                if id(row) in broken or id(row) in slow:
                    continue
                try:
                    with span("tune.measure.candidate", candidate=row.description):
                        secs = time_backend(
                            prog_, params, arrays=base,
                            backend=backend, repeat=repeat,
                        )
                    samples[id(row)].append(secs)
                    histogram("tune.measure_ns", secs * 1e9)
                except ReproError as exc:
                    counter("tune.measure_errors")
                    row.error = str(exc)
                    broken.add(id(row))
            if rnd == 0:
                # drop far-off-the-pace schedules from later rounds: one
                # sample already ranks them, and re-timing a 30x-slower
                # order twice more would dominate tune wall-clock
                timed_rows = [id(r) for r, _ in sched if samples[id(r)]]
                if timed_rows:
                    fastest = min(samples[i][0] for i in timed_rows)
                    for row, _prog in sched:
                        got = samples[id(row)]
                        if got and got[0] > SLOW_DROP_FACTOR * fastest:
                            slow.add(id(row))
                            counter("tune.measure.slow_dropped")
                            event(
                                "tune", "info",
                                "excluded from later timing rounds "
                                f"(>{SLOW_DROP_FACTOR:g}x the round's fastest); "
                                "its first-round sample stands",
                                candidate=row.description,
                                seconds=f"{got[0]:.6g}",
                            )

        for row, prog_ in sched:
            if id(row) in broken:
                continue
            got = samples[id(row)]
            row.seconds = statistics.median(got)
            if len(got) > 1:
                histogram("tune.measure_spread_ns", (max(got) - min(got)) * 1e9)
            event(
                "tune", "measure",
                f"median of {len(got)} interleaved rounds on {backend}",
                candidate=row.description,
                seconds=f"{row.seconds:.6g}",
                baseline=str(row.baseline).lower(),
            )
            try:
                out = backend_run(
                    prog_, check_params, arrays=check_base, backend=backend
                ).snapshot()
                row.ok = outputs_close(ref_out, out)
            except ReproError as exc:
                counter("tune.measure_errors")
                row.error = str(exc)
                continue
            if not row.ok:
                counter("tune.cross_check_failures")
            counter("tune.candidates.measured")

    baseline_seconds = baseline_row.seconds
    measurable = [r for r in rows if r.seconds is not None and r.ok]
    best = _pick_winner(measurable, baseline_seconds)

    result = TuneResult(
        program=program,
        params=params,
        backend=backend,
        rows=rows,
        best=best,
        baseline_seconds=baseline_seconds,
        from_cache=False,
        cache_key=key,
        enumerated=enumerated,
        pruned=pruned,
        scored=len(pool),
        executed=audit,
    )

    ranking = rank_report(rows)
    if ranking.candidates:
        event(
            "tune", "info",
            "cost-rank vs measured-rank agreement over the measured candidates",
            tau="n/a" if ranking.tau is None else f"{ranking.tau:+.3f}",
            measured=len(ranking.candidates),
        )

    if use_cache and best is not None:
        entry = _entry_from_result(result)
        path = store.put(key, entry)
        result.cache_path = str(path)
        result.entry = entry
    return result


def _pick_winner(
    measurable: list[TunedRow], baseline_seconds: float | None
) -> TunedRow | None:
    """The fastest measured row, with two refinements that keep the
    driver's invariants and its reported winner stable:

    * a row is only eligible when it is **no slower than the measured
      default order** — the winner is at worst the program the user
      already had;
    * rows within :data:`TIE_BAND` of the fastest are a statistical tie,
      resolved by the static cost score (then by seconds, then by
      description for determinism) rather than by which one happened to
      sample fastest this run.
    """
    if not measurable:
        return None
    eligible = [
        r for r in measurable
        if baseline_seconds is None or r.seconds <= baseline_seconds
    ]
    if not eligible:  # baseline itself failed cross-check / timing
        eligible = measurable
    fastest = min(r.seconds for r in eligible)
    band = [r for r in eligible if r.seconds <= fastest * TIE_BAND]
    return max(
        band,
        key=lambda r: (
            r.score if r.score is not None else float("-inf"),
            -r.seconds,
            r.description,
        ),
    )


# -- persistence glue -------------------------------------------------------


def _entry_from_result(result: TuneResult) -> dict:
    from repro import __version__

    best = result.best
    assert best is not None and best.candidate is not None
    winner_ctx = best.candidate.context
    return {
        "version": __version__,
        "program": result.program.name,
        "program_text": program_to_str(result.program),
        "params": dict(result.params),
        "backend": result.backend,
        "baseline_seconds": result.baseline_seconds,
        "enumerated": result.enumerated,
        "pruned": result.pruned,
        "scored": result.scored,
        "rows": [r.to_json(winner=(r is best)) for r in result.rows],
        "ranking": rank_report(result.rows).to_json(),
        "winner": {
            "description": best.description,
            "steps": list(best.steps),
            "seconds": best.seconds,
            "score": best.score,
            "baseline": best.baseline,
            "legality": best.legality,
            "context_program": program_to_str(winner_ctx.program),
            "matrix": [list(r) for r in best.candidate.matrix.rows()],
        },
        "created": time.time(),
    }


def _result_from_entry(
    program: Program,
    params: dict[str, int],
    key: str,
    store: TuneStore,
    entry: dict,
) -> TuneResult:
    rows: list[TunedRow] = []
    best = None
    for r in entry.get("rows", []):
        row = TunedRow(
            r.get("description", "?"), r.get("kind", ""),
            tuple(r.get("steps", ())), r.get("score"), r.get("seconds"),
            r.get("ok"), r.get("error", ""), bool(r.get("baseline")),
            r.get("legality", "theorem-2"),
        )
        rows.append(row)
        if r.get("winner"):
            best = row
    return TuneResult(
        program=program,
        params=params,
        backend=entry.get("backend", DEFAULT_BACKEND),
        rows=rows,
        best=best,
        baseline_seconds=entry.get("baseline_seconds"),
        from_cache=True,
        cache_key=key,
        cache_path=str(store.path_for(key)),
        enumerated=int(entry.get("enumerated", 0)),
        pruned=int(entry.get("pruned", 0)),
        scored=int(entry.get("scored", 0)),
        entry=entry,
    )


def load_tuned(
    program: Program,
    params: Mapping[str, int],
    store: TuneStore | None = None,
) -> dict | None:
    """The cached entry for (program, params, version), or None."""
    store = store if store is not None else TuneStore()
    entry = store.get(TuneStore.key_for(program, dict(params)))
    if entry is not None:
        counter("tune.cache.hit")
    return entry


def apply_entry(entry: dict):
    """Regenerate the tuned program from a cached entry.

    The entry stores the winner's *source* context (original or
    distributed program text) and transformation matrix; code is
    regenerated deterministically rather than trusting a serialized
    generated AST, so a corrupted or hand-edited entry can only fail
    loudly (parse/legality error), never run wrong code silently.
    """
    winner = entry.get("winner")
    if not winner:
        raise TuneError("cache entry has no winner")
    prog = parse_program(winner["context_program"], entry.get("program", "tuned"))
    matrix = IntMatrix([[int(x) for x in row] for row in winner["matrix"]])
    deps = analyze_dependences(prog)
    if winner.get("legality") == "symbolic":
        # a rescued winner fails the Theorem-2 gate by construction; the
        # fractal oracle must re-certify the regenerated code or this
        # entry is rejected — never trust a serialized "symbolic" label
        from repro.symbolic import prove_equivalent

        generated = generate_code(prog, matrix, deps, require_legal=False)
        tuned = simplify_program(generated.program)
        outcome = prove_equivalent(
            prog, tuned, spec=winner.get("description", "")
        )
        if not outcome.legal:
            raise TuneError(
                "cached symbolic winner failed re-certification: "
                f"{outcome.verdict}: {outcome.reason}"
            )
    else:
        generated = generate_code(prog, matrix, deps)
        tuned = simplify_program(generated.program)
    return tuned.with_body(tuned.body, name=(entry.get("program", "program") + "_tuned"))
