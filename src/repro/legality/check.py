"""The legality test for transformation matrices (paper Definition 6).

A matrix ``M`` is legal iff (i) it has the Figure-5 block structure
(checked by :mod:`repro.legality.structure`) and (ii) for every
dependence ``d`` from S1 to S2, the projection ``P`` of ``M·d`` onto the
loops common to S1 and S2 *in the new AST* satisfies ``P > 0``
lexicographically, or ``P = 0`` with S1 ⪯ₛ S2 in the new AST.  A
self-dependence with ``P = 0`` is *unsatisfied* — legal, but it must be
carried by the extra loops that augmentation adds (§5.4).

Because dependence entries are intervals, the lexicographic test is
three-valued: an entry like ``0+`` splits instances between "carried
here" and "falls through to the next level", so the scan continues with
the remaining levels (a sound over-approximation).  :func:`lex_scan` is
the one copy of that scan: it also reports the levels that may carry
``d``, which is §7's DOALL test (:func:`repro.analysis.parallel_loops`),
and the completion procedure screens its candidate rows with it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from typing import TYPE_CHECKING, Sequence

from repro.dependence.depvector import DependenceMatrix, DepVector
from repro.dependence.entry import DepEntry, zip_dot
from repro.instance.layout import Layout, LoopCoord
from repro.legality.structure import NewStructure, recover_structure
from repro.linalg.intmat import IntMatrix
from repro.obs import counter, event, timed
from repro.util.errors import CodegenError, LegalityError

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir import Program
    from repro.symbolic import SymbolicOutcome

__all__ = [
    "LegalityReport", "DepStatus", "check_legality", "lex_scan", "surely_carried",
    "common_projection", "assert_legal", "check",
]


class DepStatus(enum.Enum):
    SATISFIED_BY_LOOPS = "satisfied-by-loops"
    SATISFIED_SYNTACTICALLY = "satisfied-syntactically"
    UNSATISFIED = "unsatisfied"  # legal self-dep; needs augmentation
    VIOLATED = "violated"


@dataclass
class LegalityReport:
    """Outcome of the Definition-6 test."""

    legal: bool
    structure: NewStructure | None
    statuses: list[tuple[DepVector, DepStatus]] = field(default_factory=list)
    #: structural tile/fuse prefix of the spec, when :func:`check` ran one
    structural: tuple[str, ...] = ()
    structural_legal: bool = True
    #: which oracle produced the final word: "theorem-2" or "symbolic"
    oracle: str = "theorem-2"
    #: fractal-oracle outcome when the symbolic fallback was consulted
    symbolic: "SymbolicOutcome | None" = None

    @property
    def symbolic_legal(self) -> bool:
        return self.symbolic is not None and self.symbolic.legal

    @property
    def accepted(self) -> bool:
        """Final verdict across oracles: Theorem-2 legal, or rescued by
        a symbolic-equivalence certificate."""
        return (self.legal and self.structural_legal) or self.symbolic_legal

    @property
    def violations(self) -> list[DepVector]:
        return [d for d, s in self.statuses if s is DepStatus.VIOLATED]

    def unsatisfied(self, label: str | None = None) -> list[DepVector]:
        out = [d for d, s in self.statuses if s is DepStatus.UNSATISFIED]
        if label is not None:
            out = [d for d in out if d.src == label]
        return out

    def __str__(self) -> str:
        head = "LEGAL" if self.legal else "ILLEGAL"
        lines = [head]
        for d, s in self.statuses:
            lines.append(f"  {s.value:24s} {d}")
        if self.symbolic is not None:
            if self.symbolic.legal:
                lines.append("symbolic oracle: SYMBOLIC-LEGAL")
                lines.append(f"  {self.symbolic.certificate.summary()}")
            else:
                lines.append(
                    f"symbolic oracle: {self.symbolic.verdict.upper()} "
                    f"({self.symbolic.reason})"
                )
        return "\n".join(lines)


def lex_scan(entries: Sequence[DepEntry]) -> tuple[str, tuple[int, ...]]:
    """Definition 6's lexicographic scan of a common-level projection.

    Returns the three-valued sign — ``"positive"`` (every instance
    lexicographically positive), ``"zero-or-positive"`` (no instance can
    be negative; some may be exactly zero) or ``"may-be-negative"`` —
    and the levels that may carry the dependence.  A level may carry it
    iff every earlier entry may be zero and its own entry may be
    nonzero; the scan stops at the first entry that cannot be zero.
    """
    sign = None
    carriers: list[int] = []
    for level, e in enumerate(entries):
        if e.is_zero():
            continue
        carriers.append(level)
        if e.definitely_positive():
            return sign or "positive", tuple(carriers)
        if sign is None and e.may_be_negative():
            sign = "may-be-negative"
        if e.definitely_negative():
            break
    return sign or "zero-or-positive", tuple(carriers)


def surely_carried(entries: Sequence[DepEntry]) -> bool:
    """Whether the outermost level that may carry the dependence carries
    every instance of it: that entry is definitely positive and every
    earlier one is zero.

    Loop distribution and the level dependence graph ask this of the
    projection onto the loops enclosing the distributed loop.  It is
    stricter than :func:`lex_scan`'s ``"positive"``, which also accepts
    ``[0..1, +1]`` (instances with a zero first entry are carried by the
    second level); distribution verdicts do not take that relaxation.
    """
    sign, carriers = lex_scan(entries)
    return sign == "positive" and len(carriers) == 1


def common_projection(
    new_layout: Layout, matrix: IntMatrix, d: DepVector
) -> tuple[list[LoopCoord], tuple[DepEntry, ...]]:
    """The loops common to ``d``'s endpoints in the new AST, outside-in,
    and the entries of ``M·d`` at those loops."""
    common = new_layout.common_loop_coords(d.src, d.dst)
    rows = matrix.rows()
    return common, tuple(zip_dot(rows[new_layout.index(c)], d.entries) for c in common)


@timed("legality.check", attr_fn=lambda layout, *a, **kw: {"program": layout.program.name})
def check_legality(
    layout: Layout,
    matrix: IntMatrix,
    deps: DependenceMatrix,
) -> LegalityReport:
    """Run the full Definition-6 legality test."""
    counter("legality.checks")
    try:
        structure = recover_structure(layout, matrix)
    except CodegenError as exc:
        counter("legality.structure_rejections")
        event(
            "legality", "reject",
            "matrix lacks the Figure-5 block structure",
            program=layout.program.name, detail=str(exc),
        )
        return LegalityReport(False, None)

    new_layout = structure.new_layout
    assert new_layout is not None
    report = LegalityReport(True, structure)

    for d in deps:
        counter("legality.projections_checked")
        _, projected = common_projection(new_layout, matrix, d)
        sign, _ = lex_scan(projected)
        if sign == "positive":
            status = DepStatus.SATISFIED_BY_LOOPS
        elif sign == "zero-or-positive":
            if d.src == d.dst:
                status = DepStatus.UNSATISFIED
            elif structure.syntactically_before(d.src, d.dst):
                status = DepStatus.SATISFIED_SYNTACTICALLY
            else:
                status = DepStatus.VIOLATED
        else:
            status = DepStatus.VIOLATED
        if status is DepStatus.VIOLATED:
            counter("legality.violations")
            report.legal = False
            reason = (
                "transformed dependence projects lexicographically "
                f"{'negative' if sign == 'may-be-negative' else 'zero with no syntactic order'} "
                "onto the common loops (Theorem 2)"
            )
            event(
                "legality", "reject", reason,
                dep=str(d),
                projection="(" + ", ".join(str(e) for e in projected) + ")",
                sign=sign,
                src=d.src, dst=d.dst,
            )
        elif status is DepStatus.UNSATISFIED:
            counter("legality.unsatisfied")
            event(
                "legality", "info",
                "self-dependence unsatisfied by loops; needs augmentation (§5.4)",
                dep=str(d),
                projection="(" + ", ".join(str(e) for e in projected) + ")",
            )
        else:
            event(
                "legality", "accept", status.value,
                dep=str(d), sign=sign,
            )
        report.statuses.append((d, status))
    return report


def assert_legal(layout: Layout, matrix: IntMatrix, deps: DependenceMatrix) -> LegalityReport:
    """Like :func:`check_legality` but raises :class:`LegalityError` on
    an illegal transformation."""
    report = check_legality(layout, matrix, deps)
    if not report.legal:
        bad = "; ".join(str(d) for d in report.violations) or "block structure"
        raise LegalityError(f"transformation is illegal: {bad}")
    return report


def check(
    program: "Program",
    spec: str,
    *,
    oracle: str = "theorem-2",
    sizes: Sequence[int] | None = None,
    unsound: bool = False,
) -> LegalityReport:
    """Spec-level legality with optional symbolic fallback.

    Runs the Definition-6 projection test on ``spec``; with
    ``oracle="symbolic"``, a Theorem-2 (or structural-fusion) rejection
    is appealed to the fractal symbolic oracle (:mod:`repro.symbolic`),
    which may rescue the schedule with an equivalence
    :class:`~repro.symbolic.Certificate`.  ``unsound=True`` forwards the
    fuzzer's forced-unsound injection mode — never use it outside
    fuzzing/tests.
    """
    if oracle not in ("theorem-2", "symbolic"):
        raise LegalityError(f"unknown legality oracle {oracle!r}")
    from repro.transform.spec import parse_schedule

    schedule = parse_schedule(program, spec)
    report = check_legality(schedule.layout, schedule.matrix, schedule.deps)
    report.structural = tuple(schedule.structural) if schedule.is_structural else ()
    report.structural_legal = schedule.structural_legal
    if oracle == "symbolic" and not (report.legal and report.structural_legal):
        from repro.symbolic import prove_schedule

        outcome = prove_schedule(program, spec, sizes=sizes, unsound=unsound)
        report.oracle = "symbolic"
        report.symbolic = outcome
        if outcome.legal:
            counter("legality.symbolic_rescues")
            event(
                "legality", "symbolic-legal",
                "Theorem-2 rejection overturned by a symbolic-equivalence "
                "certificate",
                program=program.name, spec=spec,
                certificate=outcome.certificate.summary(),
                sizes=",".join(map(str, outcome.certificate.sizes)),
                depth=outcome.certificate.depth,
            )
        else:
            event(
                "legality", "info",
                f"symbolic oracle could not rescue the schedule "
                f"({outcome.verdict})",
                program=program.name, spec=spec, detail=outcome.reason,
            )
    return report
