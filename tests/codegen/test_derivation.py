"""A generated program carries the schedule it came from (its
``Derivation``), and only the §5.5 cleanup keeps it: lowering reads a
generated program's DOALL loops off M·D, so a rewrite that changes the
loop structure must not hand the old schedule on."""

import dataclasses

import pytest

from repro.analysis.parallel import doall_loops
from repro.codegen import generate_code
from repro.codegen.simplify import peel_iteration, simplify_program
from repro.ir import parse_program, program_to_str
from repro.ir.ast import Program
from repro.kernels import gemver_like
from repro.obs import collect_events
from repro.polyhedra import System, ge, var
from repro.transform.distribution import distribute
from repro.transform.spec import parse_schedule
from repro.transform.tiling import fuse, strip_mine


def generated(program, spec):
    s = parse_schedule(program, spec)
    return generate_code(s.program, s.matrix, s.deps).program


@pytest.fixture(scope="module")
def gemver_gen():
    return generated(gemver_like(), "permute(J,K)")


class TestCarried:
    def test_generate_code_attaches_the_schedule(self, gemver_gen):
        d = gemver_gen.derivation
        assert d is not None
        assert d.matrix.shape == (d.layout.dimension, d.layout.dimension)
        # S1 and S3 each get one augmented loop (J2, K2)
        assert {k: len(v) for k, v in d.extra_rows.items()} == {"S1": 1, "S2": 0, "S3": 1}

    def test_no_effect_on_identity(self, gemver_gen):
        bare = Program(gemver_gen.body, gemver_gen.params, gemver_gen.arrays, gemver_gen.name)
        assert bare.derivation is None
        assert bare == gemver_gen and hash(bare) == hash(gemver_gen)
        assert program_to_str(bare) == program_to_str(gemver_gen)
        assert repr(bare) == repr(gemver_gen)

    def test_simplify_keeps_it(self, gemver_gen):
        assume = System([ge(var("N"), 1)])
        assert simplify_program(gemver_gen, assume).derivation is gemver_gen.derivation
        assert simplify_program(gemver_gen).derivation is gemver_gen.derivation


class TestDropped:
    """Every other rewrite returns a program without the derivation."""

    @pytest.mark.parametrize("rewrite", [
        lambda p: p.with_body(p.body),
        lambda p: Program(p.body, p.params, p.arrays, p.name),
        lambda p: dataclasses.replace(p, name="renamed"),
        lambda p: strip_mine(p, (0,), 4),
        lambda p: peel_iteration(p, (0,)),
        lambda p: distribute(p, (0,), 1),
    ], ids=["with_body", "Program", "replace", "strip_mine", "peel", "distribute"])
    def test_rewrite_drops_it(self, gemver_gen, rewrite):
        assert rewrite(gemver_gen).derivation is None

    def test_fuse_and_jam_drop_it(self, gemver_gen):
        # two sibling loops with one header, carrying some schedule
        carrier = parse_program(SIBLINGS).derived(gemver_gen.derivation)
        # one header: the fuse is a jam
        assert fuse(carrier, (0,)).derivation is None


SIBLINGS = """param N
real A(N), B(N)
do I = 1, N
  S1: A(I) = 1.0
enddo
do I = 1, N
  S2: B(I) = A(I)
enddo
"""


class TestVerdicts:
    def test_augmented_loop_gets_a_schedule_verdict(self, gemver_gen):
        # J2 (path (0, 0, 0)) is S1's augmented loop: it has no layout
        # row, and its verdict comes from S1's extra row
        with collect_events() as events:
            doall = doall_loops(gemver_gen)
        assert (0, 0, 0) in doall
        verdicts = {e.attrs["loop"]: e.verdict for e in events if e.kind == "vectorize"}
        assert verdicts == {"I": "accept", "K": "accept", "J2": "accept",
                            "J": "accept", "K2": "reject"}
        assert {e.attrs["basis"] for e in events} == {"schedule"}

    def test_schedule_verdicts_are_no_finer_than_reanalysis(self, gemver_gen):
        bare = Program(gemver_gen.body, gemver_gen.params, gemver_gen.arrays)
        assert doall_loops(gemver_gen) <= doall_loops(bare)
