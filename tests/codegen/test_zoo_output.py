"""``generate_code``'s output over the benchmark zoo: every legal spec of
``ledger/zoo.py``, every completion it asks for, and the paper's §5.4
skew.

* The simplification ``generate_code`` ends with is idempotent, also
  under the ``N >= 1`` assumption the benchmark's second
  ``simplify_program`` pass adds: re-simplifying changes no text.
* The output holds at the parameters' lower edge (every parameter 0 or
  1), where a guard that simplification wrongly dropped would run a
  statement the source never runs, and just above it (2, 4).  The
  fuzzer draws sizes 3..5 and cannot see the edge.  Arrays are widened
  on both sides so that no declaration is empty at size 0 and a stray
  instance shows up as a difference, not as an allocation error.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

from repro import kernels
from repro.codegen import generate_code
from repro.codegen.simplify import simplify_program
from repro.completion import complete_transformation
from repro.dependence import analyze_dependences
from repro.instance import Layout
from repro.interp import check_equivalence
from repro.ir import ArrayDecl, Program, program_to_str
from repro.polyhedra import System, ge, var
from repro.transform.spec import parse_schedule

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from ledger import zoo  # noqa: E402

EDGE_SIZES = (0, 1, 2, 4)

#: kernels whose source itself cannot run at the lower edge: constant
#: bounds 1..5 index arrays declared N x N
NEEDS_LARGE_PARAMS = {"running_example"}

#: legal specs outside the zoo, run at the edge: the paper's §5.4 skew,
#: whose output keeps an affine guard (every guard left in the zoo's
#: output is a lattice divisibility test, which simplification never
#: touches)
EDGE_EXTRA = {"augmentation_example": ("skew(I,J,-1)",)}


def _cases(edge: bool = False):
    for name, kernel in zoo.KERNELS.items():
        if edge and name in NEEDS_LARGE_PARAMS:
            continue
        extra = EDGE_EXTRA.get(name, ()) if edge else ()
        for spec in kernel.legal + extra:
            yield pytest.param(name, spec, None, id=f"{name}-{spec}")
        if kernel.lead:
            yield pytest.param(name, None, kernel.lead, id=f"{name}-lead={kernel.lead}")


def _generated(name, spec, lead):
    """(source, generated) for a zoo spec or a completion led by ``lead``."""
    program = getattr(kernels, name)()
    if spec is not None:
        sched = parse_schedule(program, spec)
        return sched.program, generate_code(sched.program, sched.matrix, sched.deps)
    layout, deps = Layout(program), analyze_dependences(program)
    pos = layout.loop_index_by_var(lead)
    partial = [[1 if j == pos else 0 for j in range(layout.dimension)]]
    result = complete_transformation(program, partial, deps, layout=layout)
    return program, generate_code(program, result.matrix, deps)


def _widened(program: Program) -> Program:
    arrays = tuple(
        ArrayDecl(d.name, tuple((lo - 2, hi + 2) for lo, hi in d.dims))
        for d in program.arrays
    )
    return Program(program.body, program.params, arrays, program.name)


@pytest.mark.parametrize("name, spec, lead", _cases())
def test_generated_code_is_simplified_once_and_for_all(name, spec, lead):
    source, g = _generated(name, spec, lead)
    text = program_to_str(g.program, header=False)
    assert program_to_str(simplify_program(g.program), header=False) == text
    at_least_one = System([ge(var(p), 1) for p in source.params])
    assert program_to_str(simplify_program(g.program, at_least_one), header=False) == text


@pytest.mark.parametrize("name, spec, lead", _cases(edge=True))
def test_generated_code_holds_at_the_lower_edge(name, spec, lead):
    source, g = _generated(name, spec, lead)
    for values in itertools.product(EDGE_SIZES, repeat=len(source.params)):
        params = dict(zip(source.params, values))
        rep = check_equivalence(
            _widened(source), _widened(g.program), params, env_map=g.env_map()
        )
        assert rep["ok"], (params, rep)
