"""``repro explain`` — decision provenance as a per-phase narrative.

Where ``repro report`` answers "what did the analysis conclude",
``explain`` answers "*why* did the pipeline accept or reject each
thing": which dependence vector and projection failed the Theorem-2
test, which loop was disqualified from vectorization by which access,
which enabling restructuring the completion procedure chose, and how
the autotuner's cost ranking compared to the measured ranking
(Kendall tau).

All phases except ``tune`` re-run the relevant pipeline stage under the
CLI's observability session and render the typed decision events it
emits (:mod:`repro.obs.events`) — ``vectorize`` explains, loop by loop,
why each loop did or did not become a NumPy assignment (flat strided
views included, as the ``source-par`` backend lowers it); the
``tune`` phase reads the persisted cache entry a prior ``repro tune``
wrote, so explaining a tuning run never re-searches or re-measures.
"""

from __future__ import annotations

import json
from contextvars import ContextVar
from typing import Mapping

from repro import obs
from repro.api import EXPLAIN_PHASES as PHASES
from repro.instance import Layout
from repro.ir import program_to_str
from repro.tune.ranking import RankReport, rank_report
from repro.util.errors import ReproError

__all__ = ["explain_program", "PHASES", "render_tune_ranking"]

#: Index into the session's event list where the current explain run
#: started.  The CLI installs a fresh session per command so this is 0
#: there; the long-lived service daemon shares one session across many
#: requests, and slicing from the marker keeps each explain's narrative
#: scoped to the events *it* emitted rather than the daemon's lifetime.
_EVENTS_START: ContextVar[int] = ContextVar("repro_explain_events_start", default=0)


def _phase_events(phase: str):
    sess = obs.current_session()
    start = _EVENTS_START.get()
    events = sess.events[start:] if sess else []
    return [ev for ev in events if ev.kind == phase]


# -- phase drivers: each runs one pipeline stage and returns a narrative ----


def _explain_legality(program, spec, jobs) -> tuple[str, list]:
    from repro.dependence import analyze_dependences
    from repro.legality import check_legality
    from repro.transform.spec import parse_spec

    if not spec:
        raise ReproError(
            "explain --phase legality needs --spec (the transformation "
            'whose legality verdict you want explained, e.g. --spec "permute(I,J)")'
        )
    layout = Layout(program)
    deps = analyze_dependences(program, jobs=jobs)
    t = parse_spec(layout, spec)
    report = check_legality(layout, t.matrix, deps)
    events = _phase_events("legality")
    head = (
        f"spec: {spec}\n"
        f"verdict: {'LEGAL' if report.legal else 'ILLEGAL'} "
        f"({len(report.violations)} violated, "
        f"{len(report.unsatisfied())} unsatisfied of {len(report.statuses)} dependences)"
    )
    return head + "\n" + obs.render_events(events, kind="legality"), events


def _explain_symbolic(program, spec) -> tuple[str, list]:
    from repro.legality import check

    if not spec:
        raise ReproError(
            "explain --phase symbolic needs --spec (the Theorem-2-rejected "
            'transformation to appeal, e.g. --spec "reverse(K)")'
        )
    report = check(program, spec, oracle="symbolic")
    if report.legal and report.structural_legal:
        head = (
            f"spec: {spec}\n"
            "verdict: LEGAL by Theorem 2 — the symbolic oracle was not "
            "consulted (it only hears appeals of projection-test rejections)"
        )
    elif report.symbolic_legal:
        cert = report.symbolic.certificate
        head = (
            f"spec: {spec}\n"
            "verdict: SYMBOLIC-LEGAL — rejected by the Theorem-2 projection "
            "test, certified equivalent by the fractal symbolic oracle\n"
            f"certificate: {cert.summary()}"
        )
    else:
        head = (
            f"spec: {spec}\n"
            f"verdict: {report.symbolic.verdict.upper()} — "
            f"{report.symbolic.reason}"
        )
    events = _phase_events("legality") + _phase_events("symbolic")
    body = obs.render_events(_phase_events("symbolic"), kind="symbolic")
    return head + "\n" + body, events


def _explain_complete(program, lead) -> tuple[str, list]:
    from repro.completion.enabling import complete_with_restructuring
    from repro.util.errors import CompletionError

    if not lead:
        raise ReproError(
            "explain --phase complete needs --lead (the loop variable the "
            "completion should scan outermost, e.g. --lead K)"
        )
    try:
        enabled = complete_with_restructuring(program, lead)
        head = (
            f"lead: {lead}\n"
            f"verdict: completed"
            + (f" after restructuring [{' ; '.join(enabled.moves)}]"
               if enabled.restructured else " without restructuring")
        )
    except CompletionError as exc:
        head = f"lead: {lead}\nverdict: failed — {exc}"
    events = _phase_events("complete")
    return head + "\n" + obs.render_events(events, kind="complete"), events


def _explain_vectorize(program) -> tuple[str, list]:
    from repro.backend.lower import lower_program

    try:
        lowered = lower_program(program, vectorize=True, parallel=True)
        head = (
            f"verdict: {lowered.vectorized_loops} loop(s) vectorized "
            f"({lowered.flat_loops} through flat strided views), "
            f"{lowered.fallback_loops} innermost DOALL loop(s) stayed scalar"
        )
    except ReproError as exc:
        head = f"verdict: program cannot be lowered — {exc}"
    events = _phase_events("vectorize")
    return head + "\n" + obs.render_events(events, kind="vectorize"), events


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
    jobs: int | None = None,
) -> str:
    """Decision provenance of ``program`` for one ``phase`` (default:
    every phase runnable with the given ``spec``/``lead``), as the text
    ``repro explain`` prints: a narrative, or with ``as_json`` the
    events and ranking as JSON."""
    sess = obs.current_session()
    token = _EVENTS_START.set(len(sess.events) if sess else 0)
    try:
        phases = [phase] if phase else [
            p
            for p in PHASES
            if (p not in ("legality", "symbolic") or spec) and (p != "complete" or lead)
        ]
        drivers = {
            "legality": lambda: _explain_legality(program, spec, jobs),
            "symbolic": lambda: _explain_symbolic(program, spec),
            "complete": lambda: _explain_complete(program, lead),
            "vectorize": lambda: _explain_vectorize(program),
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
                text, events = drivers[name]()
                payload["phases"][name] = {"events": [ev.to_dict() for ev in events]}
            sections.append((name, text))
    finally:
        _EVENTS_START.reset(token)

    if as_json:
        return json.dumps(payload, indent=2, sort_keys=True)
    lines = [f"=== explain: {program.name} ==="]
    if verbose:
        lines.append(program_to_str(program))
    for name, text in sections:
        lines += [f"\n--- {name} ---", text]
    return "\n".join(lines).rstrip("\n")
