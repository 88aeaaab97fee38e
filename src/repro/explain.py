"""``repro explain`` — decision provenance as a per-phase narrative.

Where ``repro report`` answers "what did the analysis conclude",
``explain`` answers "*why* did the pipeline accept or reject each
thing": which dependence vector and projection failed the Theorem-2
test, which loop was disqualified from vectorization by which access,
which row and dependence clashed when the completion procedure failed,
and how the autotuner's cost ranking compared to the measured ranking
(Kendall tau).

Every phase except ``tune`` runs the op its command runs — ``check`` for
``legality``, ``check --symbolic`` for ``symbolic``, ``complete`` for
``complete``, the ``source-vec`` backend's lowering for ``vectorize``
(of the program ``transform`` generates, when a spec is given) —
under :func:`repro.obs.collect_events`, and renders the typed decision
events (:mod:`repro.obs.events`) *that call* emitted: the verdict and
its evidence come from one run, with or without an observability
session.  The ``tune`` phase reads the persisted cache entry a prior
``repro tune`` wrote, so explaining a tuning run never re-searches or
re-measures.
"""

from __future__ import annotations

import json
from typing import Mapping

from repro import api, obs
from repro.api import EXPLAIN_PHASES as PHASES
from repro.ir import program_to_str
from repro.tune.ranking import RankReport, rank_report
from repro.util.errors import CompletionError, LegalityError, ReproError

__all__ = ["explain_program", "PHASES", "render_tune_ranking"]


# -- phase drivers: each runs one op and returns (head, its events) ---------


def _explain_legality(program, spec) -> tuple[str, list]:
    if not spec:
        raise ReproError(
            "explain --phase legality needs --spec (the transformation "
            'whose legality verdict you want explained, e.g. --spec "permute(I,J)")'
        )
    with obs.collect_events() as events:
        result = api.check_op(program, spec)
    # one legality event per dependence, carrying it as ``dep``
    verdicts = [ev.verdict for ev in events if ev.kind == "legality" and "dep" in ev.attrs]
    structural = result.render().splitlines()[0] + "\n" if result.structural else ""
    head = (
        f"spec: {spec}\n{structural}"
        f"verdict: {'LEGAL' if result.legal else 'ILLEGAL'} "
        f"({verdicts.count('reject')} violated, {verdicts.count('info')} "
        f"unsatisfied of {len(verdicts)} dependences)"
    )
    return head, events


def _explain_symbolic(program, spec) -> tuple[str, list]:
    if not spec:
        raise ReproError(
            "explain --phase symbolic needs --spec (the Theorem-2-rejected "
            'transformation to appeal, e.g. --spec "reverse(K)")'
        )
    with obs.collect_events() as events:
        result = api.check_op(program, spec, symbolic=True)
    if result.legal and result.structural_legal:
        verdict = (
            "LEGAL by Theorem 2 — the symbolic oracle was not consulted "
            "(it only hears appeals of projection-test rejections)"
        )
    elif result.symbolic_verdict == "symbolic-legal":
        from repro.symbolic import Certificate

        verdict = (
            "SYMBOLIC-LEGAL — rejected by the Theorem-2 projection test, "
            "certified equivalent by the fractal symbolic oracle\n"
            f"certificate: {Certificate.from_payload(result.certificate).summary()}"
        )
    else:
        # the appeal's outcome event carries the oracle's reason
        reason = next(
            ev.attrs["detail"] for ev in events
            if ev.kind == "legality" and ev.verdict == "info" and "detail" in ev.attrs
        )
        verdict = f"{result.symbolic_verdict.upper()} — {reason}"
    return f"spec: {spec}\nverdict: {verdict}", events


def _explain_complete(program, lead) -> tuple[str, list]:
    if not lead:
        raise ReproError(
            "explain --phase complete needs --lead (the loop variable the "
            "completion should scan outermost, e.g. --lead K)"
        )
    with obs.collect_events() as events:
        try:
            api.complete_op(program, lead)
            verdict = "completed"
        except CompletionError as exc:
            verdict = f"failed — {exc}"
    return f"lead: {lead}\nverdict: {verdict}", events


def _explain_vectorize(program, spec) -> tuple[str, list]:
    from repro.backend.lower import lower_program

    # the lowering `backend.run(..., backend="source-vec")` executes, of
    # the program `repro transform` prints when a spec is given; an
    # illegal spec has no such program, so the source is explained
    head = ""
    if spec:
        try:
            program = api.transformed(program, spec)
            head = f"spec: {spec}\n"
        except LegalityError:
            # the legality phase says why
            head = f"spec: {spec} is illegal; explaining the source\n"
    basis = (
        f"schedule (DOALL read off M·D of {spec!r}, §7)" if program.derivation
        else "analysis (DOALL from the program's own dependences, §3)"
    )
    with obs.collect_events() as events:
        try:
            lowered = lower_program(program, vectorize=True, parallel=False)
            verdict = (
                f"{lowered.vectorized_loops} loop(s) vectorized, "
                f"{lowered.fallback_loops} innermost DOALL loop(s) stayed scalar"
            )
        except ReproError as exc:
            verdict = f"program cannot be lowered — {exc}"
    return f"{head}backend: source-vec\nbasis: {basis}\nverdict: {verdict}", events


def render_tune_ranking(entry: dict) -> str:
    """The cost-rank vs measured-rank table of a persisted tune entry."""
    report = (
        RankReport.from_json(entry["ranking"])
        if entry.get("ranking")
        else rank_report(entry.get("rows", []))  # entries from older runs
    )
    if not report.candidates:
        return "(no candidate was both scored and measured)"
    rows = [("candidate", "score", "cost rank", "measured rank", "seconds")]
    for c in sorted(report.candidates, key=lambda c: c.measured_rank):
        rows.append(
            (
                c.description,
                f"{c.score:.4f}",
                str(c.cost_rank),
                str(c.measured_rank),
                f"{c.seconds:.6f}",
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = [
        "  "
        + "  ".join(
            (f"{c:<{widths[0]}}" if i == 0 else f"{c:>{widths[i]}}")
            for i, c in enumerate(r)
        ).rstrip()
        for r in rows
    ]
    tau = (
        "undefined (fewer than two distinct ranks)"
        if report.tau is None
        else f"{report.tau:+.3f}"
    )
    lines.append(
        f"  Kendall tau (cost rank vs measured rank): {tau} "
        f"over {len(report.candidates)} measured candidate(s)"
    )
    return "\n".join(lines)


def _explain_tune(program, params, cache_dir) -> tuple[str, dict | None]:
    from repro.tune import TuneStore, load_tuned
    from repro.tune.driver import DEFAULT_PARAM

    params = dict(params or {p: DEFAULT_PARAM for p in program.params})
    store = TuneStore(cache_dir) if cache_dir else TuneStore()
    entry = load_tuned(program, params, store=store)
    if entry is None:
        return (
            f"no cached tuning entry for {program.name!r} at params {params} "
            f"in {store.root} — run `repro tune` first (same --params)",
            None,
        )
    winner = entry.get("winner", {})
    head = (
        f"params: {entry.get('params')}  backend: {entry.get('backend')}\n"
        f"winner: {winner.get('description', '?')} "
        f"(measured {winner.get('seconds', float('nan')):.6f}s; "
        f"enumerated {entry.get('enumerated')}, pruned {entry.get('pruned')} "
        f"illegal before execution, scored {entry.get('scored')})"
    )
    return head + "\n" + render_tune_ranking(entry), entry


def explain_program(
    program,
    *,
    phase: str | None = None,
    spec: str | None = None,
    lead: str | None = None,
    params: Mapping[str, int] | None = None,
    cache_dir: str | None = None,
    as_json: bool = False,
    verbose: bool = False,
) -> str:
    """Decision provenance of ``program`` for one ``phase`` (default:
    every phase runnable with the given ``spec``/``lead``), as the text
    ``repro explain`` prints: a narrative, or with ``as_json`` the
    events and ranking as JSON.  Each phase's events are those its own
    op call emitted; no observability session is needed."""
    phases = [phase] if phase else [
        p
        for p in PHASES
        if (p not in ("legality", "symbolic") or spec) and (p != "complete" or lead)
    ]
    drivers = {
        "legality": lambda: _explain_legality(program, spec),
        "symbolic": lambda: _explain_symbolic(program, spec),
        "complete": lambda: _explain_complete(program, lead),
        "vectorize": lambda: _explain_vectorize(program, spec),
    }
    sections: list[tuple[str, str]] = []
    payload: dict = {"program": program.name, "phases": {}}
    for name in phases:
        if name == "tune":
            text, entry = _explain_tune(program, params, cache_dir)
            payload["phases"]["tune"] = {
                "entry": {
                    k: entry[k]
                    for k in ("params", "backend", "winner", "ranking")
                    if k in entry
                }
                if entry
                else None,
            }
        else:
            head, events = drivers[name]()
            text = head + "\n" + obs.render_events(events, kind=name)
            payload["phases"][name] = {"events": [ev.to_dict() for ev in events]}
        sections.append((name, text))

    if as_json:
        return json.dumps(payload, indent=2, sort_keys=True)
    lines = [f"=== explain: {program.name} ==="]
    if verbose:
        lines.append(program_to_str(program))
    for name, text in sections:
        lines += [f"\n--- {name} ---", text]
    return "\n".join(lines).rstrip("\n")
