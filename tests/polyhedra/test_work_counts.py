"""The Fourier–Motzkin work of a fixed compile pass, pinned exactly.

A cold pass over the benchmark zoo — the dependence analysis of each
kernel, then code generation for its first legal spec — performs a
fixed number of eliminations, lower×upper constraint pairings and
feasibility queries.  These counts are properties of the algorithm
(the elimination order, the memo granularity, which systems are asked
about), not of how a constraint is stored, so a change of
representation must leave them exactly as they are.  A change that
means to alter the work updates the numbers here and says why.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro import kernels, obs
from repro.codegen import generate_code
from repro.dependence import analyze_dependences
from repro.polyhedra import engine
from repro.transform.spec import parse_schedule

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from ledger import zoo  # noqa: E402

#: counter -> total over the pass
PINNED = {
    "fm.eliminations": 1844,
    "fm.constraint_pairs": 221,
    "fm.feasibility_queries": 465,
    "fm.budget_exhausted": 0,
}


def _cold_pass() -> dict[str, int]:
    prev = engine.default_engine().enabled
    engine.configure(enabled=True)
    try:
        with obs.session() as sess:
            for name in sorted(zoo.KERNELS):
                engine.cache_clear()
                program = getattr(kernels, name)()
                analyze_dependences(program)
                legal = zoo.KERNELS[name].legal
                if legal:
                    sched = parse_schedule(program, legal[0])
                    generate_code(sched.program, sched.matrix, sched.deps)
    finally:
        engine.configure(enabled=prev)
        engine.cache_clear()
    return {k: sess.counters.get(k, 0) for k in PINNED}


def test_the_zoo_has_nineteen_kernels():
    assert len(zoo.KERNELS) == 19


def test_fm_work_counts_are_pinned():
    assert _cold_pass() == PINNED
