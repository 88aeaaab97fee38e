"""The cost model's address stream against the reference interpreter.

``program_addresses`` must give the addresses of
``trace_addresses(*execute(..., trace=True))`` element for element, and
the same instance count, on every Theorem-2-legal candidate the tuner
can score over the benchmark zoo, tiled ones included, at the model
sizes ``score_candidate`` uses.  Where the interpreter raises, so must
the walk.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.interp import execute
from repro.interp.cache import program_addresses, trace_addresses
from repro.ir import parse_program, program_to_str
from repro.ir.ast import ArrayDecl, ExprCondition, Guard, Loop, Program, Statement
from repro.ir.expr import ArrayRef, BinOp, IntLit, VarRef
from repro.legality.check import check_legality
from repro.polyhedra import ge, var
from repro.tune.cost import candidate_model_params, realize
from repro.tune.space import enumerate_candidates
from repro.util.errors import InterpError

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from ledger import zoo  # noqa: E402


def _same_stream(program, params) -> None:
    store, trace = execute(program, params, trace=True)
    addresses, instances = program_addresses(program, params)
    assert addresses.dtype == np.int64
    assert np.array_equal(addresses, trace_addresses(trace, store))
    assert instances == len(trace)


@pytest.mark.parametrize("name", list(zoo.KERNELS))
def test_zoo_candidates(name):
    program = getattr(kernels, name)()
    legal = 0
    for cand in enumerate_candidates(program, tile_sizes=(4, 8)):
        ctx = cand.context
        if not check_legality(ctx.layout, cand.matrix, ctx.deps).legal:
            continue
        legal += 1
        generated = realize(cand)
        try:
            _same_stream(generated, candidate_model_params(cand))
        except AssertionError as exc:
            raise AssertionError(f"{name}: {cand.description}") from exc
    assert legal


def test_lattice_guard_and_exact_division():
    # skew(K,L,1) is not unimodular: the generated code subscripts
    # A(K / 2, K / 2) under if ((K % 2) == 0), in the innermost loop's
    # body and between loops
    from repro.codegen import generate_code
    from repro.transform.spec import parse_schedule

    program = kernels.cholesky()
    generated = generate_code(program, parse_schedule(program, "skew(K,L,1)").matrix).program
    assert "(K / 2)" in program_to_str(generated)
    for n in (1, 2, 5, 8):
        _same_stream(generated, {"N": n})


def test_guards_steps_and_scalars():
    # an affine and a lattice condition on one guard, a scalar
    # temporary, a statement between loops, and loops of step 2 and -1
    i, j, n = var("I"), var("J"), var("N")
    s2 = Statement("S2", ArrayRef("A", [VarRef("I"), VarRef("J")]),
                   BinOp("+", ArrayRef("A", [VarRef("J"), VarRef("I")]), VarRef("t")))
    s3 = Statement("S3", ArrayRef("B", [VarRef("J")]),
                   BinOp("*", ArrayRef("B", [VarRef("J")]), IntLit(2)))
    s4 = Statement("S4", ArrayRef("B", [VarRef("J")]), ArrayRef("A", [VarRef("J"), VarRef("I")]))
    s5 = Statement("S5", ArrayRef("B", [VarRef("J")]), IntLit(0))
    lattice = ExprCondition(BinOp("%", VarRef("J"), IntLit(2)), "==")
    body = (
        Statement("S1", VarRef("t"), ArrayRef("B", [VarRef("I")])),
        Loop.make("J", 1, n, (Guard((ge(j, i), lattice), (s2,)), s3)),
        Loop.make("J", 2, n, (s5,), step=2),
        Loop.make("J", n, 1, (s4,), step=-1),
    )
    program = Program((Loop.make("I", 1, n, body),), ("N",),
                      (ArrayDecl.make("A", n, n), ArrayDecl.make("B", n)))
    for size in (1, 3, 8):
        _same_stream(program, {"N": size})


def _one_loop(subscript) -> Program:
    n = var("N")
    body = Statement("S1", ArrayRef("A", [subscript]), IntLit(1))
    return Program((Loop.make("K", 1, n, (body,)),), ("N",), (ArrayDecl.make("A", n),))


@pytest.mark.parametrize("subscript, params, budget, message", [
    pytest.param(BinOp("+", VarRef("K"), IntLit(1)), {"N": 4}, 1000,
                 "out of declared range", id="out-of-range"),
    pytest.param(BinOp("/", VarRef("K"), IntLit(2)), {"N": 4}, 1000,
                 "non-integer subscript", id="odd-K-half"),
    pytest.param(VarRef("K"), {"N": 50}, 20, "budget exhausted", id="runaway"),
])
def test_errors_match_interpreter(subscript, params, budget, message):
    program = _one_loop(subscript)
    with pytest.raises(InterpError, match=message):
        execute(program, params, max_instances=budget)
    with pytest.raises(InterpError, match=message):
        program_addresses(program, params, max_instances=budget)


def test_empty_program_stream():
    program = parse_program("param N\nreal A(N)\ndo I = 2..N\n S1: A(I) = 1.0\nenddo")
    addresses, instances = program_addresses(program, {"N": 1})
    assert addresses.size == 0 and instances == 0
