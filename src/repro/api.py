"""Shared pipeline-driving API: one code path for the CLI and the service.

Historically every ``repro`` subcommand in :mod:`repro.cli` drove the
pipeline itself — load a program, parse a spec, dispatch a backend,
format the output.  The transformation service (:mod:`repro.service`)
exposes the same operations over HTTP, and duplicating that driving
logic would guarantee drift between the two front ends.  This module is
the single implementation both call:

* loaders and parameter parsing (:func:`load_file`,
  :func:`load_flexible`, :func:`parse_params`);
* one ``*_op`` function per pipeline operation (analyze / check /
  transform / complete / run / tune / explain), each returning a small
  result dataclass;
* every result dataclass round-trips through a JSON-safe ``payload``
  (``to_payload`` / ``from_payload``, derived from its fields) and
  renders its CLI text with ``render()`` — so a remote invocation
  deserializes the wire payload and prints through *exactly* the same
  rendering code as a local run, making warm service results
  byte-identical to cold CLI output;
* the op table :data:`OPS` — per op, the request dataclass
  (:mod:`repro.requests`: argument names and defaults, which is also
  the ``args`` object on the service wire), the result class and the
  ``*_op`` function — and :func:`execute`, the one call that maps
  request fields onto that function for the local CLI and the daemon
  alike.

Canonical program identity (:func:`canonical_text`, :func:`program_key`)
also lives here: the service shards its warm caches per program by this
key (docs/SERVICE.md).
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.codegen import generate_code
from repro.completion import complete_transformation
from repro.dependence import analyze_dependences
from repro.instance import Layout
from repro.ir import Program, parse_program, program_to_str
from repro.legality import check as legality_check
from repro.transform.spec import parse_schedule
from repro.util.errors import LegalityError, ReproError

# The analysis layers above are exact integer arithmetic and are imported
# here, once; everything that needs numpy (value-based refinement, the
# interpreter, the backends, the tuner, explain) is imported by the op
# that uses it, so `repro deps` never loads an array library.
# `preload()` is for processes that would rather pay it all up front.
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "load_file", "load_flexible", "parse_params", "resolve_run_params",
    "canonical_text", "program_key",
    "AnalyzeResult", "CheckResult", "TransformResult", "CompleteResult",
    "RunResult", "TuneOutcome", "ExplainResult",
    "EXPLAIN_PHASES",
    "analyze_op", "check_op", "transform_op", "complete_op", "run_op",
    "tune_op", "explain_op", "Op", "OPS", "execute", "preload",
]


# ---------------------------------------------------------------------------
# imports: the numpy-side layers, per op or all at once
# ---------------------------------------------------------------------------

def preload() -> None:
    """Import every layer an op below imports on first use.

    A CLI command pays only for what it runs; a long-lived process calls
    this once at start-up instead — ``repro serve`` does — so that no
    request pays a first-use import.
    """
    from importlib import import_module

    for name in (
        "repro.dependence.refine", "repro.symbolic", "repro.backend.runtime",
        "repro.tune", "repro.explain",
    ):
        import_module(name)


# ---------------------------------------------------------------------------
# loading and parameters
# ---------------------------------------------------------------------------

def load_file(path: str) -> Program:
    """Parse the program at ``path``."""
    with open(path) as f:
        src = f.read()
    return parse_program(src, path)


def load_flexible(name: str) -> Program:
    """Resolve a program argument: a file path, a path missing its
    ``.loop`` extension, or a bundled kernel name (``repro.kernels``)."""
    import os

    for candidate in (name, name + ".loop"):
        if os.path.isfile(candidate):
            return load_file(candidate)
    base = os.path.basename(name)
    from repro import kernels

    factory = getattr(kernels, base, None)
    if callable(factory) and not base.startswith("_"):
        try:
            program = factory()
        except TypeError:
            program = None
        if isinstance(program, Program):
            return program
    raise ReproError(f"no such file or bundled kernel: {name!r}")


def parse_params(pairs: Sequence[str] | None) -> dict[str, int]:
    """``["N=8,M=4", "K=2"]`` → ``{"N": 8, "M": 4, "K": 2}``."""
    out: dict[str, int] = {}
    for p in pairs or []:
        for item in p.split(","):
            if not item:
                continue
            k, _, v = item.partition("=")
            out[k.strip()] = int(v)
    return out


def resolve_run_params(
    program: Program, pairs: Sequence[str] | None, default: int | None = None
) -> dict[str, int]:
    """Parsed ``-p`` pairs, defaulting every program parameter to
    ``default`` when no pair names it."""
    params = parse_params(pairs)
    if not params and default is not None:
        params = {p: default for p in program.params}
    return params


def canonical_text(program: Program | str) -> str:
    """Canonical program text: one parse→print round trip lands every
    representation of the same program on the parser's normal form, so
    equal programs always share identity (and a service cache shard)."""
    text = program if isinstance(program, str) else program_to_str(program)
    try:
        return program_to_str(parse_program(text, "canonical"))
    except Exception:
        return text


def program_key(program: Program | str) -> str:
    """SHA-256 of the canonical program text — the service's shard key."""
    return hashlib.sha256(canonical_text(program).encode()).hexdigest()


# ---------------------------------------------------------------------------
# result dataclasses (payload round trip + CLI rendering)
# ---------------------------------------------------------------------------

class _Payload:
    """The wire form of a result dataclass *is* its fields: one JSON
    object keyed by field name.  A payload may omit fields that have a
    default (older daemons predate some of them)."""

    def to_payload(self) -> dict:
        payload = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            payload[f.name] = list(value) if isinstance(value, tuple) else value
        return payload

    @classmethod
    def from_payload(cls, p: Mapping[str, Any]):
        return cls(**{f.name: p[f.name] for f in dataclasses.fields(cls) if f.name in p})


@dataclass
class AnalyzeResult(_Payload):
    """Dependence analysis output (``repro deps``)."""

    matrix_text: str
    summary: str
    refined: bool = False

    def render(self) -> str:
        return f"{self.matrix_text}\n\n{self.summary}"


@dataclass
class CheckResult(_Payload):
    """Legality verdict for a transformation spec (``repro check``).

    Exit codes are part of the scripting contract: ``0`` accepted
    (Theorem-2 legal, or rescued by a symbolic certificate), ``1``
    rejected verdict, while *raised* errors map to ``2`` (analysis/
    usage) or ``3`` (an illegal transformation rejected as an error,
    ``error_kind="LegalityError"``) in :func:`repro.cli.main`.
    """

    legal: bool
    report_text: str
    structural: tuple[str, ...] = ()
    structural_legal: bool = True
    oracle: str = "theorem-2"
    symbolic_verdict: str | None = None
    certificate: dict | None = None

    def __post_init__(self):
        self.structural = tuple(self.structural)  # a JSON list off the wire

    @property
    def accepted(self) -> bool:
        return (self.legal and self.structural_legal) or (
            self.symbolic_verdict == "symbolic-legal"
        )

    @property
    def exit_code(self) -> int:
        return 0 if self.accepted else 1

    def render(self) -> str:
        lines = []
        if self.structural:
            verdict = "legal" if self.structural_legal else "ILLEGAL"
            lines.append(
                f"structural prefix {'; '.join(self.structural)}: {verdict}"
            )
        lines.append(self.report_text)
        if self.symbolic_verdict == "symbolic-legal":
            lines.append(
                "verdict: SYMBOLIC-LEGAL — rejected by Theorem 2, certified "
                "equivalent by the fractal symbolic oracle"
            )
        return "\n".join(lines)


@dataclass
class TransformResult(_Payload):
    """Generated program text for a legal spec (``repro transform``)."""

    text: str

    def render(self) -> str:
        return self.text


@dataclass
class CompleteResult(_Payload):
    """Completed partial transformation (``repro complete``)."""

    matrix_text: str
    program_text: str

    def render(self) -> str:
        return f"completed matrix:\n{self.matrix_text}\n\n{self.program_text}"


@dataclass
class RunResult(_Payload):
    """Final array contents of an execution (``repro run``).

    Arrays travel the wire as nested lists; ``json`` round-trips finite
    doubles exactly, so a reconstructed array is bit-identical to the
    locally computed one.
    """

    arrays: dict[str, np.ndarray]
    trace_len: int | None = None
    tuned_banner: str = ""

    def to_payload(self) -> dict:
        payload = super().to_payload()
        payload["arrays"] = {k: v.tolist() for k, v in self.arrays.items()}
        return payload

    @classmethod
    def from_payload(cls, p: Mapping[str, Any]) -> "RunResult":
        import numpy as np

        result = super().from_payload(p)
        result.arrays = {
            k: np.asarray(v, dtype=float) for k, v in result.arrays.items()
        }
        return result

    def render(self) -> str:
        import numpy as np

        out = io.StringIO()
        if self.tuned_banner:
            print(self.tuned_banner, file=out)
        for name, arr in self.arrays.items():
            print(f"{name} =", file=out)
            with np.printoptions(precision=4, suppress=True, linewidth=100):
                print(arr, file=out)
        if self.trace_len is not None:
            print(f"\n{self.trace_len} statement instances executed", file=out)
        return out.getvalue().rstrip("\n")


@dataclass
class TuneOutcome(_Payload):
    """A finished autotuning search (``repro tune``), wire-friendly.

    Carries the same fields as the CLI's ``--json`` payload; the row
    dicts come from :meth:`repro.tune.driver.TunedRow.to_json` with the
    winner flagged, so rendering needs no object identity.
    """

    program: str
    params: dict[str, int]
    backend: str
    from_cache: bool
    cache_key: str = ""
    cache_path: str | None = None
    enumerated: int = 0
    pruned: int = 0
    scored: int = 0
    baseline_seconds: float | None = None
    speedup: float | None = None
    rows: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return any(r.get("winner") for r in self.rows) and not any(
            r.get("error") or r.get("ok") is False for r in self.rows
        )

    def render(self) -> str:
        out = io.StringIO()
        print(f"program {self.program}  params {self.params}  "
              f"backend {self.backend}", file=out)
        if self.from_cache:
            print(f"cache: HIT ({self.cache_path}) — search skipped", file=out)
        else:
            print(f"cache: MISS — enumerated {self.enumerated} candidates, "
                  f"pruned {self.pruned} illegal before execution, "
                  f"scored {self.scored}", file=out)
            if self.cache_path:
                print(f"cached winner -> {self.cache_path}", file=out)
        print(f"{'':2}{'schedule':<36} {'score':>8} {'seconds':>12} "
              f"{'vs default':>11}  ok", file=out)
        ordered = sorted(
            self.rows,
            key=lambda r: (r.get("seconds") is None, r.get("seconds") or 0.0),
        )
        for r in ordered:
            mark = "*" if r.get("winner") else " "
            desc = r["description"] + (
                " [symbolic]" if r.get("legality") == "symbolic" else ""
            )
            if r.get("error"):
                print(f"{mark} {desc:<36} {'-':>8} {'-':>12} "
                      f"{'-':>11}  error: {r['error']}", file=out)
                continue
            score = f"{r['score']:.4f}" if r.get("score") is not None else "-"
            vs = (f"{self.baseline_seconds / r['seconds']:.3f}x"
                  if self.baseline_seconds and r.get("seconds") else "-")
            ok = "-" if r.get("ok") is None else ("yes" if r["ok"] else "NO")
            print(f"{mark} {desc:<36} {score:>8} "
                  f"{r['seconds']:>12.6f} {vs:>11}  {ok}", file=out)
        winner = next((r for r in self.rows if r.get("winner")), None)
        if winner is not None:
            speed = (f"  ({self.speedup:.3f}x vs default order)"
                     if self.speedup else "")
            print(f"winner: {winner['description']}{speed}", file=out)
        else:
            print("winner: none (no candidate survived measurement)", file=out)
        return out.getvalue().rstrip("\n")


@dataclass
class ExplainResult(_Payload):
    """Rendered decision provenance (``repro explain``)."""

    text: str
    exit_code: int = 0

    def render(self) -> str:
        return self.text


#: Phases ``explain --phase`` accepts, in pipeline order.
EXPLAIN_PHASES = ("legality", "symbolic", "complete", "vectorize", "tune")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def analyze_op(
    program: Program,
    *,
    refine: bool = False,
    sample_params: Sequence[str] = (),
) -> AnalyzeResult:
    """Dependence analysis, optionally value-based refined at the
    ``sample_params`` sizes (``"N=6"`` texts)."""
    deps = analyze_dependences(program)
    if refine:
        from repro.dependence import refine_dependences

        samples = [
            parse_params([s]) or {"N": 6} for s in (sample_params or ["N=6", "N=9"])
        ]
        deps = refine_dependences(program, deps, samples=samples)
    return AnalyzeResult(deps.to_str(), deps.summary(), refined=refine)


def check_op(
    program: Program,
    spec: str,
    *,
    symbolic: bool = False,
    oracle: str = "theorem-2",
) -> CheckResult:
    """Legality verdict for a transformation spec.  ``symbolic=True``
    (the wire's spelling of ``oracle="symbolic"``) appeals Theorem-2
    rejections to the fractal symbolic oracle."""
    report = legality_check(program, spec, oracle="symbolic" if symbolic else oracle)
    cert = (
        report.symbolic.certificate
        if report.symbolic is not None and report.symbolic.certificate
        else None
    )
    return CheckResult(
        legal=report.legal,
        report_text=str(report),
        structural=report.structural,
        structural_legal=report.structural_legal,
        oracle=report.oracle,
        symbolic_verdict=report.symbolic.verdict if report.symbolic else None,
        certificate=cert.to_payload() if cert else None,
    )


def transform_op(
    program: Program, spec: str, *, simplify: bool = False
) -> TransformResult:
    """Generated code for a legal transformation spec.

    ``generate_code`` always simplifies, so ``simplify`` is accepted and
    ignored.  It remains only because the frozen benchmark ledger still
    passes it (as a keyword and on the wire)."""
    return TransformResult(program_to_str(transformed(program, spec)))


def transformed(program: Program, spec: str) -> Program:
    """The generated program for a legal ``spec``, carrying its schedule."""
    schedule = parse_schedule(program, spec)
    if not schedule.structural_legal:
        raise LegalityError(
            f"structural prefix {'; '.join(schedule.structural)} fails the "
            "Theorem-2 fusion test"
        )
    return generate_code(schedule.program, schedule.matrix, schedule.deps).program


def complete_op(program: Program, lead: str) -> CompleteResult:
    """Complete a partial transformation whose lead loop is ``lead``."""
    layout = Layout(program)
    deps = analyze_dependences(program)
    n = layout.dimension
    pos = layout.loop_index_by_var(lead)
    partial = [[1 if j == pos else 0 for j in range(n)]]
    result = complete_transformation(program, partial, deps, layout=layout)
    g = generate_code(program, result.matrix, deps)
    return CompleteResult(str(result.matrix), program_to_str(g.program))


def run_op(
    program: Program,
    params: Mapping[str, int],
    *,
    backend: str = "reference",
    trace: bool = False,
) -> RunResult:
    """Execute a program with any registered backend."""
    from repro.interp import execute

    if backend == "reference":
        store, tr = execute(program, dict(params), trace=trace)
        return RunResult(
            dict(store.arrays), trace_len=len(tr) if tr is not None else None
        )
    if trace:
        raise ReproError("--trace requires --backend reference")
    from repro.backend import run as backend_run

    store = backend_run(program, dict(params), backend=backend)
    return RunResult(dict(store.arrays))


def tune_op(
    program: Program,
    params: Mapping[str, int] | None = None,
    *,
    cache_dir: str | None = None,
    **search: Any,
) -> TuneOutcome:
    """Autotune ``program`` and return a wire-friendly outcome.  The
    ``search`` keywords (and their defaults) are those of
    :func:`repro.tune.tune`."""
    from repro.tune import TuneStore, tune

    store = TuneStore(cache_dir) if cache_dir else TuneStore()
    result = tune(program, dict(params) if params else None, store=store, **search)
    return TuneOutcome(
        program=program.name,
        params=result.params,
        backend=result.backend,
        from_cache=result.from_cache,
        cache_key=result.cache_key,
        cache_path=result.cache_path,
        enumerated=result.enumerated,
        pruned=result.pruned,
        scored=result.scored,
        baseline_seconds=result.baseline_seconds,
        speedup=result.speedup,
        rows=[r.to_json(winner=(r is result.best)) for r in result.rows],
    )


def explain_op(program: Program, **fields: Any) -> ExplainResult:
    """Decision provenance, rendered exactly as ``repro explain`` prints
    it; the keywords are those of :func:`repro.explain.explain_program`.
    Each phase runs its op here and renders the decision events that
    call emitted, so no observability session is needed."""
    from repro.explain import explain_program

    return ExplainResult(explain_program(program, **fields))


# ---------------------------------------------------------------------------
# the op table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    """What one pipeline op is, for the CLI, the client, the wire and
    the daemon: ``fn(program, **fields)`` with ``fields`` named and
    defaulted by ``request`` and a ``result`` instance coming back."""

    name: str
    result: type
    fn: Callable
    #: The daemon caches result payloads per program shard — sound only
    #: for a pure function of (canonical program, fields).
    cacheable: bool = True
    #: Keywords of ``fn`` that describe where the op runs, not what it
    #: computes, so they are not request fields (see :func:`execute`).
    context: tuple[str, ...] = ()

    @property
    def request(self) -> type:
        """The op's request dataclass — imported on first use, so that a
        local CLI run, which never builds a request, does not pay for
        defining seven of them."""
        from repro.requests import REQUESTS

        return REQUESTS[self.name]

    def from_payload(self, payload: Mapping[str, Any]):
        return self.result.from_payload(payload)


#: ``tune`` is not cacheable — the persistent tune store is its cache
#: and timings are not deterministic — and neither is ``explain``, whose
#: tune phase reads that mutable store.
OPS: dict[str, Op] = {
    op.name: op
    for op in (
        Op("analyze", AnalyzeResult, analyze_op),
        Op("check", CheckResult, check_op),
        Op("transform", TransformResult, transform_op),
        Op("complete", CompleteResult, complete_op),
        Op("run", RunResult, run_op),
        Op("tune", TuneOutcome, tune_op, cacheable=False, context=("cache_dir",)),
        Op("explain", ExplainResult, explain_op, cacheable=False,
           context=("cache_dir",)),
    )
}


def execute(
    op: str,
    program: Program,
    fields: Mapping[str, Any],
    *,
    cache_dir: str | None = None,
):
    """Run pipeline op ``op`` on ``program`` and return its result object.

    ``fields`` are request fields by wire name (any subset; the rest
    take the op's defaults) — the same dict a remote caller hands to
    ``ServiceClient.request``.  ``cache_dir`` (the tuning cache) belongs
    to the process doing the work: the local CLI passes its flag, the
    daemon its own tune directory.
    """
    spec = OPS[op]
    kwargs = dict(fields)
    name = kwargs.pop("name", "")  # tune/explain: the client's program name
    if name:
        program = dataclasses.replace(program, name=name)
    context = {"cache_dir": cache_dir}
    kwargs.update((key, context[key]) for key in spec.context)
    return spec.fn(program, **kwargs)
