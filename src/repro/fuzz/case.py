"""Fuzz cases and the single-case differential pipeline driver.

A :class:`FuzzCase` is a fully self-contained, serializable unit of
work: a program (as source text — exactly what the corpus stores, so a
fuzzed case and a replayed case take the identical path), a candidate
transformation (a symbolic spec string or a completion request), the
execution parameters, and an optional ``claim_legal`` flag that forces
the case through code generation *as if* the legality test had accepted
it — the injection hook the CLI's ``--inject-illegal`` and the harness
tests use to prove divergences are detected, shrunk and serialized
end-to-end.

:func:`run_case` runs one case through the full pipeline and returns a
:class:`CaseResult` whose ``verdict`` classifies the outcome; the two
``divergence-*`` verdicts are contract violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.codegen import generate_code
from repro.completion import complete_transformation
from repro.dependence import analyze_dependences
from repro.instance import Layout
from repro.interp import check_equivalence
from repro.ir import parse_program
from repro.legality import check_legality
from repro.obs import counter, span
from repro.transform.spec import parse_schedule
from repro.util.errors import CompletionError, ReproError

__all__ = [
    "FuzzCase", "CaseResult", "run_case", "known_illegal_case",
    "known_symbolic_case", "known_unsound_case",
    "DIVERGENCE_VERDICTS", "PASS_VERDICTS",
]

#: Contract violations: the pipeline produced wrong code for a
#: transformation it accepted (or was told to accept), crashed, an
#: execution backend disagreed with the reference interpreter, the
#: warm service daemon's output differed from the cold local pipeline,
#: or a symbolic certificate was contradicted by concrete execution.
DIVERGENCE_VERDICTS = (
    "divergence-oracle", "divergence-crash", "divergence-backend",
    "divergence-service", "divergence-symbolic",
)

#: Outcomes that uphold the two-sided contract.
PASS_VERDICTS = (
    "pass-legal",            # legal and all three oracles agree
    "illegal-confirmed",     # rejected, forced anyway, oracles flagged it
    "illegal-rejected",      # rejected and not even forceable
    "illegal-unconfirmed",   # rejected but equivalent on this input (precision gap)
    "spec-rejected",         # spec not expressible on this layout
    "completion-rejected",   # no legal completion in the candidate fragment
    "codegen-skipped",       # legal, but codegen hit a documented limit
    "symbolic-legal",        # Thm-2-rejected, certified, output-equivalent
    "unsound-caught",        # fabricated certificate flagged by the oracles
)


@dataclass(frozen=True)
class FuzzCase:
    """One differential-testing work unit (immutable, serializable)."""

    program_src: str
    kind: str = "spec"                  # "spec" | "complete"
    spec: str = ""                      # for kind == "spec"
    lead: str = ""                      # for kind == "complete": lead loop var
    params: tuple[tuple[str, int], ...] = (("N", 4),)
    claim_legal: bool = False           # force codegen as if legal (injection)
    note: str = ""                      # free-form provenance
    backends: tuple[str, ...] = ()      # cross-backend differential oracle
    service: str = ""                   # warm-daemon differential oracle (URL)
    symbolic: bool = False              # consult fractal oracle on rejection
    unsound: bool = False               # fabricate the certificate (self-test)

    def params_dict(self) -> dict[str, int]:
        return dict(self.params)

    def describe(self) -> str:
        t = self.spec if self.kind == "spec" else f"complete(lead={self.lead})"
        p = ", ".join(f"{k}={v}" for k, v in self.params)
        claimed = " [claimed legal]" if self.claim_legal else ""
        vs = f" [vs {', '.join(self.backends)}]" if self.backends else ""
        svc = " [vs service]" if self.service else ""
        sym = " [unsound]" if self.unsound else (
            " [symbolic]" if self.symbolic else "")
        return f"{t} @ {{{p}}}{claimed}{vs}{svc}{sym}"

    def with_(self, **changes) -> "FuzzCase":
        return replace(self, **changes)


@dataclass
class CaseResult:
    """Outcome of :func:`run_case` on one case."""

    case: FuzzCase
    verdict: str
    detail: str = ""
    legal: bool | None = None
    oracle: dict | None = field(default=None, repr=False)

    @property
    def divergent(self) -> bool:
        return self.verdict in DIVERGENCE_VERDICTS


def known_illegal_case(n: int = 6) -> FuzzCase:
    """The canonical injected case: a loop-carried flow dependence whose
    reversal the legality test rejects — claimed legal so the oracles,
    not the symbolic test, must catch the miscompile."""
    src = (
        "param N\n"
        "real A(-64:N + 64)\n"
        "do I = 1, N\n"
        "  S1: A(I) = (A(I + -1) + f(I))\n"
        "enddo"
    )
    return FuzzCase(
        program_src=src,
        kind="spec",
        spec="reverse(I)",
        params=(("N", n),),
        claim_legal=True,
        note="injected known-illegal reversal of a flow dependence",
    )


def known_symbolic_case(n: int = 5, m: int = 4) -> FuzzCase:
    """The canonical symbolic rescue: reversing syrk's reduction loop.
    Theorem 2 must reject it (the accumulation's self-dependence flips),
    the fractal oracle certifies it (pure reassociation), and the forced
    run must be output-equivalent — verdict ``symbolic-legal``."""
    src = (
        "param N, M\n"
        "real C(N,N), A(N,M)\n"
        "do I = 1..N\n"
        "  do J = 1..I\n"
        "    do K = 1..M\n"
        "      S1: C(I,J) = C(I,J) + A(I,K)*A(J,K)\n"
        "    enddo\n"
        "  enddo\n"
        "enddo"
    )
    return FuzzCase(
        program_src=src,
        kind="spec",
        spec="reverse(K)",
        params=(("M", m), ("N", n)),
        symbolic=True,
        note="syrk reduction reversal: Theorem-2-illegal, symbolically legal",
    )


def known_unsound_case(n: int = 6) -> FuzzCase:
    """Forced-unsound self-test: the known-illegal reversal, but with a
    *fabricated* symbolic certificate injected instead of a real proof.
    The differential oracles must contradict the lying certificate —
    verdict ``unsound-caught`` — demonstrating the fuzzer would detect a
    buggy symbolic oracle."""
    return known_illegal_case(n).with_(
        claim_legal=False,
        symbolic=True,
        unsound=True,
        note="injected fabricated symbolic certificate (forced-unsound self-test)",
    )


def run_case(case: FuzzCase, *, strict_illegal: bool = False) -> CaseResult:
    """Run one case end-to-end and classify the outcome.

    ``strict_illegal`` promotes the precision-gap outcome (legality
    rejected a transformation that is equivalent on this input) from a
    monitored counter to a divergence.
    """
    counter("fuzz.runs")
    try:
        with span("fuzz.case", kind=case.kind):
            return _run_case_inner(case, strict_illegal)
    except ReproError as exc:
        counter("fuzz.divergences")
        return CaseResult(case, "divergence-crash", f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # noqa: BLE001 - the fuzzer's whole job
        counter("fuzz.divergences")
        return CaseResult(case, "divergence-crash", f"{type(exc).__name__}: {exc}")


def _run_case_inner(case: FuzzCase, strict_illegal: bool) -> CaseResult:
    program = parse_program(case.program_src, "fuzz_case")

    # -- cross-backend oracle on the source program --------------------
    if case.backends:
        detail = _backend_divergence(program, case.params_dict(), case.backends)
        if detail is not None:
            counter("fuzz.divergences")
            return CaseResult(case, "divergence-backend", f"source program: {detail}")

    # -- warm-service oracle on the source program ---------------------
    if case.service:
        detail = _service_divergence(program, case.params_dict(), case.service)
        if detail is not None:
            counter("fuzz.divergences")
            return CaseResult(case, "divergence-service", detail)

    layout = Layout(program)
    deps = analyze_dependences(program, layout=layout)

    # -- build the candidate transformation ----------------------------
    # Spec cases go through parse_schedule so structural tile/fuse
    # prefixes rewrite the program first; the matrix is then over the
    # rewritten program, and the equivalence oracles compare against the
    # *original* through the schedule's instance-space pullback.
    schedule = None
    work_program, work_layout, work_deps = program, layout, deps
    if case.kind == "spec":
        try:
            schedule = parse_schedule(program, case.spec)
        except ReproError as exc:
            counter("fuzz.spec_rejections")
            return CaseResult(case, "spec-rejected", str(exc))
        work_program = schedule.program
        work_layout = schedule.layout
        work_deps = schedule.deps
        matrix = schedule.matrix
    elif case.kind == "complete":
        try:
            pos = layout.loop_index_by_var(case.lead)
        except ReproError as exc:
            counter("fuzz.spec_rejections")
            return CaseResult(case, "spec-rejected", str(exc))
        partial = [[1 if j == pos else 0 for j in range(layout.dimension)]]
        try:
            matrix = complete_transformation(
                program, partial, deps, layout=layout
            ).matrix
        except CompletionError as exc:
            counter("fuzz.completion_rejections")
            return CaseResult(case, "completion-rejected", str(exc))
    else:
        raise ReproError(f"unknown fuzz case kind {case.kind!r}")

    report = check_legality(work_layout, matrix, work_deps)
    structural_legal = schedule.structural_legal if schedule is not None else True
    legal = report.legal and structural_legal
    counter("fuzz.legal" if legal else "fuzz.illegal")

    def oracle_env_map(g):
        em = g.env_map()
        if schedule is not None and schedule.is_structural:
            return lambda lbl, env: schedule.pullback(lbl, em(lbl, env))
        return em

    # -- side 1: accepted (or claimed) transformations must be equivalent
    if legal or case.claim_legal:
        try:
            g = generate_code(work_program, matrix, work_deps, require_legal=legal)
        except ReproError as exc:
            if legal:
                # documented limits (e.g. rank-deficient augmentation edge
                # cases) — not a divergence, but counted and monitored
                counter("fuzz.codegen_skips")
                return CaseResult(case, "codegen-skipped", str(exc), legal=True)
            return CaseResult(case, "illegal-rejected", str(exc), legal=False)
        rep = check_equivalence(
            program, g.program, case.params_dict(), env_map=oracle_env_map(g)
        )
        if rep["ok"] and case.backends:
            # guard-heavy generated code is the interesting lowering input
            detail = _backend_divergence(g.program, case.params_dict(), case.backends)
            if detail is not None:
                counter("fuzz.divergences")
                return CaseResult(
                    case, "divergence-backend", f"generated program: {detail}",
                    legal=legal, oracle=rep,
                )
        if rep["ok"]:
            if legal:
                return CaseResult(case, "pass-legal", legal=True, oracle=rep)
            counter("fuzz.illegal_unconfirmed")
            return CaseResult(
                case, "illegal-unconfirmed",
                "claimed-legal case is equivalent on this input",
                legal=False, oracle=rep,
            )
        counter("fuzz.divergences")
        return CaseResult(
            case, "divergence-oracle", _oracle_detail(rep), legal=legal, oracle=rep
        )

    # -- side 2: rejected transformations, forced, should be flagged ----
    if not report.legal and report.structure is None:
        return CaseResult(case, "illegal-rejected", "no Figure-5 block structure",
                          legal=False)
    try:
        g = generate_code(work_program, matrix, work_deps, require_legal=False)
    except ReproError as exc:
        return CaseResult(case, "illegal-rejected", str(exc), legal=False)
    rep = check_equivalence(
        program, g.program, case.params_dict(), env_map=oracle_env_map(g)
    )

    # -- symbolic rescue: every certificate is cross-checked ------------
    if (case.symbolic or case.unsound) and case.kind == "spec":
        rescued = _judge_symbolic(case, program, g, rep)
        if rescued is not None:
            return rescued

    if not rep["ok"]:
        counter("fuzz.illegal_confirmed")
        return CaseResult(
            case, "illegal-confirmed", _oracle_detail(rep), legal=False, oracle=rep
        )
    counter("fuzz.illegal_unconfirmed")
    if strict_illegal:
        counter("fuzz.divergences")
        return CaseResult(
            case, "divergence-oracle",
            "legality rejected but all oracles pass (strict-illegal mode)",
            legal=False, oracle=rep,
        )
    return CaseResult(
        case, "illegal-unconfirmed",
        "rejected transformation is equivalent on this input (precision gap)",
        legal=False, oracle=rep,
    )


def _judge_symbolic(case: FuzzCase, program, g, rep: dict) -> CaseResult | None:
    """Side 2 with the fractal oracle armed (``repro fuzz --symbolic``).

    Consults :func:`repro.symbolic.prove_schedule` on the Theorem-2
    rejection.  No certificate → ``None`` (the normal forced-run
    classification proceeds).  A certificate is *never* trusted bare:
    the forced run must be output-equivalent — judged on
    ``outputs_close`` and the instance multiset only, because a
    reassociated reduction legitimately reorders the dependence trace —
    and, when the case names backends, every backend must agree on the
    generated code too.  A contradicted certificate is
    ``divergence-symbolic``; for a deliberately fabricated one
    (``case.unsound``) contradiction is the *expected* outcome
    (``unsound-caught``) and survival is the divergence.
    """
    from repro.symbolic import prove_schedule
    from repro.util.errors import SymbolicError

    counter("fuzz.symbolic_consults")
    try:
        outcome = prove_schedule(program, case.spec, unsound=case.unsound)
    except SymbolicError as exc:
        if case.unsound:
            counter("fuzz.divergences")
            return CaseResult(
                case, "divergence-symbolic",
                f"forced-unsound injection did not produce a certificate: {exc}",
                legal=False,
            )
        counter("fuzz.symbolic_skips")
        return None
    if outcome is None or not outcome.legal:
        if case.unsound:
            counter("fuzz.divergences")
            return CaseResult(
                case, "divergence-symbolic",
                "forced-unsound injection did not produce a certificate: "
                + (outcome.reason if outcome is not None else "no outcome"),
                legal=False,
            )
        counter("fuzz.symbolic_unrescued")
        return None

    equivalent = bool(rep["outputs_close"]) and bool(rep["same_instances"])
    why = _oracle_detail(rep) if not equivalent else ""
    if equivalent and case.backends:
        detail = _backend_divergence(g.program, case.params_dict(), case.backends)
        if detail is not None:
            equivalent = False
            why = f"generated program: {detail}"

    cert = outcome.certificate
    summary = cert.summary() if cert is not None else "(no certificate)"
    if case.unsound:
        if equivalent:
            counter("fuzz.divergences")
            return CaseResult(
                case, "divergence-symbolic",
                "fabricated certificate evaded the differential oracle "
                f"({summary})",
                legal=False, oracle=rep,
            )
        counter("fuzz.unsound_caught")
        return CaseResult(
            case, "unsound-caught",
            f"fabricated certificate contradicted by execution: {why}",
            legal=False, oracle=rep,
        )
    if equivalent:
        counter("fuzz.symbolic_rescues")
        return CaseResult(
            case, "symbolic-legal", summary, legal=False, oracle=rep,
        )
    counter("fuzz.divergences")
    return CaseResult(
        case, "divergence-symbolic",
        f"certificate contradicted by execution: {why} ({summary})",
        legal=False, oracle=rep,
    )


def _backend_divergence(program, params: dict, backends: tuple[str, ...]) -> str | None:
    """Cross-backend differential oracle.

    Runs ``program`` through the reference interpreter and through each
    requested backend on identical inputs; returns a human-readable
    detail string on the first disagreement, or ``None``.  Comparison is
    sound only when the reference run succeeds: reference success means
    every subscript was in its declared range, so an unchecked backend
    executes the same accesses.  A :class:`BackendError` (the lowering
    refusing a program, e.g. reserved identifiers) is a skip, not a
    divergence.
    """
    from repro.backend import run as backend_run
    from repro.interp import execute
    from repro.interp.equivalence import outputs_close
    from repro.util.errors import BackendError

    try:
        ref, _ = execute(program, params)
    except ReproError:
        counter("fuzz.backend_skips")
        return None
    ref_out = ref.snapshot()
    for b in backends:
        counter(f"fuzz.backend_checks.{b}")
        try:
            store = backend_run(program, params, backend=b)
        except BackendError:
            counter("fuzz.backend_skips")
            continue
        except ReproError as exc:
            return f"backend {b} raised {type(exc).__name__}: {exc}"
        if not outputs_close(ref_out, store.snapshot()):
            return f"backend {b}: final array contents differ from reference"
        if set(store.scalars) != set(ref.scalars) or any(
            abs(store.scalars[k] - v) > 1e-9 * max(1.0, abs(v))
            for k, v in ref.scalars.items()
        ):
            return f"backend {b}: scalar values differ from reference"
    return None


def _service_divergence(program, params: dict, url: str) -> str | None:
    """Warm-daemon differential oracle (``repro fuzz --service URL``).

    Sends the case's source program to a running ``repro serve`` daemon
    and *byte-compares* the rendered analyze and run outputs against the
    local in-process pipeline — the service contract is that warm-path
    results are identical to cold runs (docs/SERVICE.md).  A program the
    local reference execution rejects is a skip (the daemon must then
    reject it too).
    """
    from repro.api import AnalyzeResult, RunResult, analyze_op, run_op
    from repro.ir import program_to_str
    from repro.service.client import ServiceClient
    from repro.util.errors import ServiceError

    src = program_to_str(program)
    client = ServiceClient(url)
    counter("fuzz.service_checks")
    local_analyze = analyze_op(program).render()
    try:
        remote_analyze = AnalyzeResult.from_payload(
            client.request("analyze", program=src)
        ).render()
    except ServiceError as exc:
        return f"service analyze raised (local analyze succeeded): {exc}"
    if remote_analyze != local_analyze:
        return "service analyze output differs from local pipeline"
    try:
        local_run = run_op(program, params).render()
    except ReproError:
        counter("fuzz.service_skips")
        try:
            client.request("run", program=src, params=params)
        except ServiceError:
            return None
        return "service ran a program the local reference execution rejects"
    try:
        remote_run = RunResult.from_payload(
            client.request("run", program=src, params=params)
        ).render()
    except ServiceError as exc:
        return f"service run raised (local run succeeded): {exc}"
    if remote_run != local_run:
        return "service run output differs from local reference execution"
    return None


def _oracle_detail(rep: dict) -> str:
    parts = []
    if not rep["same_instances"]:
        parts.append("instance multisets differ")
    viol = rep.get("dependence_violations")
    if viol:
        parts.append(f"{len(viol)} dependence violation(s), first {viol[0]}")
    if not rep["outputs_close"]:
        parts.append("final array contents differ")
    return "; ".join(parts) or "oracle failure"
