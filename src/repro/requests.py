"""The request dataclasses: each pipeline op's argument names and
defaults, once.

A request is the ``args`` object of a service call (docs/SERVICE.md) and,
under the same names, the keyword arguments of the op's function in
:mod:`repro.api`, whose table reaches these classes as
``api.OPS[op].request``.  They sit in a leaf of their own because only
the wire needs them: a local ``repro deps`` never builds a request, and
fifteen-field frozen dataclasses cost about a millisecond each to
define.

Programs travel as source text, never as file paths: the daemon has no
business reading the client's filesystem.  ``name`` is the client-side
program name, which canonical program text drops and the tune/explain
renderings print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

__all__ = [
    "AnalyzeRequest", "CheckRequest", "TransformRequest", "CompleteRequest",
    "RunRequest", "TuneRequest", "ExplainRequest", "REQUESTS",
]

@dataclass(frozen=True)
class AnalyzeRequest:
    """Dependence analysis (``repro deps``)."""

    op: ClassVar[str] = "analyze"
    program: str
    refine: bool = False
    sample_params: tuple[str, ...] = ()


@dataclass(frozen=True)
class CheckRequest:
    """Legality verdict for a transformation spec (``repro check``).

    ``symbolic=True`` appeals a Theorem-2 rejection to the fractal
    symbolic oracle (docs/SYMBOLIC.md); the field defaults off so
    pre-symbolic clients keep working unchanged."""

    op: ClassVar[str] = "check"
    program: str
    spec: str = ""
    symbolic: bool = False


@dataclass(frozen=True)
class TransformRequest:
    """Code generation for a legal spec (``repro transform``).

    ``simplify`` is accepted and ignored: the output is always
    simplified.  The field stays so that clients which still send it,
    the frozen benchmark ledger among them, keep working."""

    op: ClassVar[str] = "transform"
    program: str
    spec: str = ""
    simplify: bool = False


@dataclass(frozen=True)
class CompleteRequest:
    """Completion of a partial transformation (``repro complete``)."""

    op: ClassVar[str] = "complete"
    program: str
    lead: str = ""


@dataclass(frozen=True)
class RunRequest:
    """Execution with any registered backend (``repro run``)."""

    op: ClassVar[str] = "run"
    program: str
    params: dict[str, int] = field(default_factory=dict)
    backend: str = "reference"
    trace: bool = False


@dataclass(frozen=True)
class TuneRequest:
    """Autotuning search (``repro tune``).  Served under the program's
    shard lock and never result-cached: the daemon's persistent tune
    store is the cache."""

    op: ClassVar[str] = "tune"
    program: str
    name: str = ""
    params: dict[str, int] | None = None
    backend: str = "source-vec"
    beam_width: int = 4
    depth: int = 2
    top_k: int = 3
    repeat: int = 3
    use_cache: bool = True
    force: bool = False
    include_structural: bool = True
    tile_sizes: tuple[int, ...] | None = None
    max_candidates: int | None = None
    cross_check: str = "full"
    #: Appeal Theorem-2 rejections to the fractal symbolic oracle
    #: (docs/SYMBOLIC.md).  Defaults off, so requests serialized by
    #: older clients keep their exact meaning.
    symbolic: bool = False


@dataclass(frozen=True)
class ExplainRequest:
    """Decision provenance (``repro explain``)."""

    op: ClassVar[str] = "explain"
    program: str
    name: str = ""
    phase: str | None = None
    spec: str | None = None
    lead: str | None = None
    params: dict[str, int] = field(default_factory=dict)
    as_json: bool = False
    verbose: bool = False


REQUESTS: dict[str, type] = {
    cls.op: cls
    for cls in (
        AnalyzeRequest, CheckRequest, TransformRequest, CompleteRequest,
        RunRequest, TuneRequest, ExplainRequest,
    )
}
