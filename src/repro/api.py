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
  (``to_payload`` / ``from_payload``) and renders its CLI text with
  ``render()`` — so a remote invocation deserializes the wire payload
  and prints through *exactly* the same rendering code as a local run,
  making warm service results byte-identical to cold CLI output.

Canonical program identity (:func:`canonical_text`, :func:`program_key`)
also lives here: the service shards its warm caches per program by this
key (docs/SERVICE.md).
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.codegen import generate_code
from repro.codegen.simplify import simplify_program
from repro.completion import complete_transformation
from repro.dependence import analyze_dependences
from repro.instance import Layout
from repro.ir import Program, parse_program, program_to_str
from repro.legality import check as legality_check
from repro.polyhedra import System, ge, var
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
    "analyze_op", "check_op", "transform_op", "complete_op", "run_op",
    "tune_op", "explain_op", "OPS", "preload",
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

@dataclass
class AnalyzeResult:
    """Dependence analysis output (``repro deps``)."""

    matrix_text: str
    summary: str
    refined: bool = False

    def to_payload(self) -> dict:
        return {
            "matrix_text": self.matrix_text,
            "summary": self.summary,
            "refined": self.refined,
        }

    @classmethod
    def from_payload(cls, p: Mapping[str, Any]) -> "AnalyzeResult":
        return cls(p["matrix_text"], p["summary"], bool(p.get("refined", False)))

    def render(self) -> str:
        return f"{self.matrix_text}\n\n{self.summary}"


@dataclass
class CheckResult:
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

    @property
    def accepted(self) -> bool:
        return (self.legal and self.structural_legal) or (
            self.symbolic_verdict == "symbolic-legal"
        )

    @property
    def exit_code(self) -> int:
        return 0 if self.accepted else 1

    def to_payload(self) -> dict:
        return {
            "legal": self.legal,
            "report_text": self.report_text,
            "structural": list(self.structural),
            "structural_legal": self.structural_legal,
            "oracle": self.oracle,
            "symbolic_verdict": self.symbolic_verdict,
            "certificate": self.certificate,
        }

    @classmethod
    def from_payload(cls, p: Mapping[str, Any]) -> "CheckResult":
        return cls(
            bool(p["legal"]), p["report_text"],
            tuple(p.get("structural", ())), bool(p.get("structural_legal", True)),
            p.get("oracle", "theorem-2"), p.get("symbolic_verdict"),
            p.get("certificate"),
        )

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
class TransformResult:
    """Generated program text for a legal spec (``repro transform``)."""

    text: str

    def to_payload(self) -> dict:
        return {"text": self.text}

    @classmethod
    def from_payload(cls, p: Mapping[str, Any]) -> "TransformResult":
        return cls(p["text"])

    def render(self) -> str:
        return self.text


@dataclass
class CompleteResult:
    """Completed partial transformation (``repro complete``)."""

    matrix_text: str
    program_text: str

    def to_payload(self) -> dict:
        return {"matrix_text": self.matrix_text, "program_text": self.program_text}

    @classmethod
    def from_payload(cls, p: Mapping[str, Any]) -> "CompleteResult":
        return cls(p["matrix_text"], p["program_text"])

    def render(self) -> str:
        return f"completed matrix:\n{self.matrix_text}\n\n{self.program_text}"


@dataclass
class RunResult:
    """Final array contents of an execution (``repro run``).

    Arrays travel the wire as nested lists; ``json`` round-trips finite
    doubles exactly, so a reconstructed array is bit-identical to the
    locally computed one.
    """

    arrays: dict[str, np.ndarray]
    trace_len: int | None = None
    tuned_banner: str = ""

    def to_payload(self) -> dict:
        return {
            "arrays": {k: v.tolist() for k, v in self.arrays.items()},
            "trace_len": self.trace_len,
            "tuned_banner": self.tuned_banner,
        }

    @classmethod
    def from_payload(cls, p: Mapping[str, Any]) -> "RunResult":
        import numpy as np

        return cls(
            {k: np.asarray(v, dtype=float) for k, v in p["arrays"].items()},
            p.get("trace_len"),
            p.get("tuned_banner", ""),
        )

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
class TuneOutcome:
    """A finished autotuning search (``repro tune``), wire-friendly.

    Carries the same fields as the CLI's ``--json`` payload; the row
    dicts come from :meth:`repro.tune.driver.TunedRow.to_json` with the
    winner flagged, so rendering needs no object identity.
    """

    program: str
    params: dict[str, int]
    backend: str
    from_cache: bool
    cache_key: str
    cache_path: str | None
    enumerated: int
    pruned: int
    scored: int
    baseline_seconds: float | None
    speedup: float | None
    rows: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return any(r.get("winner") for r in self.rows) and not any(
            r.get("error") or r.get("ok") is False for r in self.rows
        )

    def to_payload(self) -> dict:
        return {
            "program": self.program,
            "params": self.params,
            "backend": self.backend,
            "from_cache": self.from_cache,
            "cache_key": self.cache_key,
            "cache_path": self.cache_path,
            "enumerated": self.enumerated,
            "pruned": self.pruned,
            "scored": self.scored,
            "baseline_seconds": self.baseline_seconds,
            "speedup": self.speedup,
            "rows": self.rows,
        }

    @classmethod
    def from_payload(cls, p: Mapping[str, Any]) -> "TuneOutcome":
        return cls(
            program=p["program"],
            params={k: int(v) for k, v in p["params"].items()},
            backend=p["backend"],
            from_cache=bool(p["from_cache"]),
            cache_key=p.get("cache_key", ""),
            cache_path=p.get("cache_path"),
            enumerated=int(p.get("enumerated", 0)),
            pruned=int(p.get("pruned", 0)),
            scored=int(p.get("scored", 0)),
            baseline_seconds=p.get("baseline_seconds"),
            speedup=p.get("speedup"),
            rows=list(p.get("rows", [])),
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
class ExplainResult:
    """Rendered decision provenance (``repro explain``)."""

    text: str
    exit_code: int = 0

    def to_payload(self) -> dict:
        return {"text": self.text, "exit_code": self.exit_code}

    @classmethod
    def from_payload(cls, p: Mapping[str, Any]) -> "ExplainResult":
        return cls(p["text"], int(p.get("exit_code", 0)))

    def render(self) -> str:
        return self.text


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def analyze_op(
    program: Program,
    *,
    refine: bool = False,
    sample_param_texts: Sequence[str] | None = None,
    jobs: int | None = None,
) -> AnalyzeResult:
    """Dependence analysis, optionally value-based refined."""
    deps = analyze_dependences(program, jobs=jobs)
    if refine:
        from repro.dependence import refine_dependences

        samples = [
            parse_params([s]) or {"N": 6}
            for s in (sample_param_texts or ["N=6", "N=9"])
        ]
        deps = refine_dependences(program, deps, samples=samples)
    return AnalyzeResult(deps.to_str(), deps.summary(), refined=refine)


def check_op(
    program: Program, spec: str, *, oracle: str = "theorem-2"
) -> CheckResult:
    """Legality verdict for a transformation spec.  ``oracle="symbolic"``
    appeals Theorem-2 rejections to the fractal symbolic oracle."""
    report = legality_check(program, spec, oracle=oracle)
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
    """Generated code for a legal transformation spec."""
    schedule = parse_schedule(program, spec)
    if not schedule.structural_legal:
        raise LegalityError(
            f"structural prefix {'; '.join(schedule.structural)} fails the "
            "Theorem-2 fusion test"
        )
    g = generate_code(schedule.program, schedule.matrix, schedule.deps)
    out = g.program
    if simplify:
        assume = System([ge(var(p), 1) for p in program.params])
        out = simplify_program(out, assume)
    return TransformResult(program_to_str(out))


def complete_op(
    program: Program, lead: str, *, jobs: int | None = None
) -> CompleteResult:
    """Complete a partial transformation whose lead loop is ``lead``."""
    layout = Layout(program)
    deps = analyze_dependences(program, jobs=jobs)
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
    par_jobs: int | None = None,
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

    store = backend_run(program, dict(params), backend=backend, par_jobs=par_jobs)
    return RunResult(dict(store.arrays))


def tune_op(
    program: Program,
    params: Mapping[str, int] | None = None,
    *,
    cache_dir: str | None = None,
    backend: str = "source-vec",
    beam_width: int = 4,
    depth: int = 2,
    top_k: int = 3,
    repeat: int = 3,
    jobs: int | None = None,
    use_cache: bool = True,
    force: bool = False,
    include_structural: bool = True,
    tile_sizes: Sequence[int] | None = None,
    max_candidates: int | None = None,
    cross_check: str = "full",
    symbolic: bool = False,
) -> TuneOutcome:
    """Autotune ``program`` and return a wire-friendly outcome."""
    from repro.tune import TuneStore, tune

    store = TuneStore(cache_dir) if cache_dir else TuneStore()
    result = tune(
        program,
        dict(params) if params else None,
        backend=backend,
        beam_width=beam_width,
        depth=depth,
        top_k=top_k,
        repeat=repeat,
        jobs=jobs,
        store=store,
        use_cache=use_cache,
        force=force,
        include_structural=include_structural,
        tile_sizes=tuple(tile_sizes) if tile_sizes else None,
        max_candidates=max_candidates,
        cross_check=cross_check,
        symbolic=symbolic,
    )
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


def explain_op(
    program: Program,
    *,
    phase: str | None = None,
    spec: str | None = None,
    lead: str | None = None,
    params: Mapping[str, int] | None = None,
    cache_dir: str | None = None,
    as_json: bool = False,
    verbose: bool = False,
    jobs: int | None = None,
) -> ExplainResult:
    """Decision provenance, rendered exactly as ``repro explain`` prints
    it.  Requires an installed observability session for the
    event-replay phases (the CLI and the daemon both provide one)."""
    from types import SimpleNamespace

    from repro.explain import explain_program

    args = SimpleNamespace(
        phase=phase, spec=spec, lead=lead, params=dict(params or {}),
        cache_dir=cache_dir, json=as_json, verbose=verbose, jobs=jobs,
    )
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = explain_program(program, args)
    return ExplainResult(buf.getvalue().rstrip("\n"), code)


#: Operation registry shared by the service dispatcher and the docs:
#: op name -> result class (the payload contract of a successful call).
OPS: dict[str, type] = {
    "analyze": AnalyzeResult,
    "check": CheckResult,
    "transform": TransformResult,
    "complete": CompleteResult,
    "run": RunResult,
    "tune": TuneOutcome,
    "explain": ExplainResult,
}


def _json_safe(value):
    """Round anything payload-ish through json (sanity helper for tests)."""
    return json.loads(json.dumps(value))
