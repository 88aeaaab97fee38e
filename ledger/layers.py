"""The benchmark's calls into each layer's public functions, each one a
span named ``<module>.<operation>``.  Every workload reaches the
pipeline through this file (or through a CLI / daemon subprocess), so a
layer's time is measured the same way wherever it is spent.
"""

from __future__ import annotations

import numpy as np

from repro.backend import lower_program, run_lowered
from repro.codegen import generate_code
from repro.codegen.simplify import simplify_program
from repro.completion import complete_transformation
from repro.dependence import analyze_dependences
from repro.instance import Layout
from repro.interp import execute
from repro.ir import parse_program, program_to_str
from repro.legality import check_legality
from repro.polyhedra import System, ge, var
from repro.symbolic import prove_schedule
from repro.transform.spec import parse_schedule

#: emitter name -> (vectorize, parallel) flags of ``lower_program``
MODES = {"source": (False, False), "source-vec": (True, False),
         "source-par": (True, True)}
LOWER_SPAN = {"source": "backend.lower_scalar", "source-vec": "backend.lower_vec",
              "source-par": "backend.lower_par"}
EXECUTE_SPAN = {"source": "backend.execute_source",
                "source-vec": "backend.execute_source_vec",
                "source-par": "backend.execute_source_par"}

#: worker count handed to every ``source-par`` execution (2-core box)
PAR_JOBS = 2


def parse(tr, item, text, name):
    with tr.span("ir.parse", item):
        return parse_program(text, name)


def analyze(tr, item, program, *, warm=False):
    with tr.span("dependence.analyze_warm" if warm else "dependence.analyze_cold", item):
        return analyze_dependences(program)


def schedule(tr, item, program, spec):
    with tr.span("transform.parse_schedule", item):
        return parse_schedule(program, spec)


def verdict(tr, item, program, spec, sched, *, symbolic=False):
    """``legal`` / ``illegal`` by the Theorem-2 test; with ``symbolic``
    a rejection is appealed to the fractal oracle, whose verdict
    (``symbolic-legal`` / ``mismatch`` / ``unknown``) then stands."""
    with tr.span("legality.check", item):
        report = check_legality(sched.layout, sched.matrix, sched.deps)
    if report.legal and sched.structural_legal:
        return "legal"
    if not symbolic:
        return "illegal"
    with tr.span("symbolic.check", item):
        return prove_schedule(program, spec).verdict


def complete(tr, item, program, lead, deps):
    layout = Layout(program)
    pos = layout.loop_index_by_var(lead)
    partial = [[1 if j == pos else 0 for j in range(layout.dimension)]]
    with tr.span("completion.complete", item):
        return complete_transformation(program, partial, deps, layout=layout)


def generate(tr, item, program, matrix, deps):
    with tr.span("codegen.generate", item):
        return generate_code(program, matrix, deps).program


def simplify(tr, item, program):
    assume = System([ge(var(p), 1) for p in program.params])
    with tr.span("codegen.simplify", item):
        return simplify_program(program, assume)


def lower(tr, item, program, mode):
    vectorize, parallel = MODES[mode]
    with tr.span(LOWER_SPAN[mode], item):
        return lower_program(program, vectorize=vectorize, parallel=parallel)


def run(tr, item, lowered, params, arrays, mode):
    with tr.span(EXECUTE_SPAN[mode], item):
        return run_lowered(lowered, params, arrays, par_jobs=PAR_JOBS).arrays


def reference(tr, item, program, params, arrays=None):
    """The independent tree-walking interpreter — the output oracle."""
    with tr.span("interp.reference", item):
        store, _ = execute(program, params, arrays)
    return store.arrays


def arrays_match(want: dict, got: dict) -> bool:
    """Equal up to the last few bits (vectorized emissions may reassociate)."""
    return all(np.allclose(want[k], got[k], rtol=1e-9, atol=0.0) for k in want)


def transformed(tr, item, program, spec):
    """``program`` under the legal ``spec``, generated and simplified."""
    sched = schedule(tr, item, program, spec)
    return simplify(tr, item, generate(tr, item, sched.program, sched.matrix, sched.deps))


def lines(program_or_text) -> int:
    text = program_or_text if isinstance(program_or_text, str) else program_to_str(program_or_text)
    return text.count("\n") + 1
