"""Sampler determinism and coverage: cases are pure functions of
(master_seed, index), in-process and across processes."""

import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

from repro.fuzz import run_case, sample_case
from repro.fuzz.sample import SHAPE_WEIGHTS, sample_spec
from repro.instance import Layout
from repro.ir import parse_program
from repro.kernels import random_program
from repro.transform.spec import CATALOGUE, parse_schedule, parse_spec, spec_ops


def _src_path() -> str:
    import repro

    return str(pathlib.Path(repro.__file__).resolve().parent.parent)


class TestDeterminism:
    def test_same_coordinates_same_case(self):
        for index in range(6):
            assert sample_case(11, index) == sample_case(11, index)

    def test_distinct_indices_distinct_cases(self):
        cases = {sample_case(0, i).program_src for i in range(12)}
        assert len(cases) >= 10

    def test_deterministic_across_processes(self):
        """A worker process re-deriving a case from (seed, index) must
        get the byte-identical case the parent would have sampled."""
        code = (
            "from repro.fuzz import sample_case\n"
            "for i in range(8):\n"
            "    c = sample_case(42, i)\n"
            "    print(repr((c.program_src, c.kind, c.spec, c.lead, c.params)))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": _src_path(), "PYTHONHASHSEED": "random"},
        ).stdout
        expected = []
        for i in range(8):
            c = sample_case(42, i)
            expected.append(repr((c.program_src, c.kind, c.spec, c.lead, c.params)))
        assert out.rstrip("\n") == "\n".join(expected)


class TestCoverage:
    def test_all_shapes_reached(self):
        shapes = set()
        for i in range(60):
            note = sample_case(7, i).note
            shapes.add(note.rsplit("shape=", 1)[1])
        assert shapes == {name for name, _ in SHAPE_WEIGHTS}

    def test_both_kinds_reached(self):
        kinds = {sample_case(7, i).kind for i in range(40)}
        assert kinds == {"spec", "complete"}

    def test_sampled_specs_parse_on_their_layout(self):
        for i in range(20):
            case = sample_case(3, i)
            program = parse_program(case.program_src, "t")
            layout = Layout(program)
            if case.kind == "spec":
                parse_schedule(program, case.spec)  # must not raise
                assert 1 <= len(spec_ops(case.spec)) <= 3
            else:
                assert case.lead in [c.var for c in layout.loop_coords()]

    def test_structural_ops_appear_in_stream(self):
        """tile and fuse must both show up in a modest stream prefix."""
        drawn = {k.name for k in CATALOGUE if k.structural and k.draws}
        seen = set()
        for i in range(300):
            case = sample_case(5, i)
            if case.kind != "spec":
                continue
            for op in spec_ops(case.spec):
                name = op.split("(", 1)[0]
                if name in drawn:
                    seen.add(name)
            if seen == drawn:
                break
        assert seen == {"tile", "fuse"}

    def test_skew_then_interchange_appears_in_stream(self):
        """The wavefront pair ``skew(a,b,f); permute(a,b)``, the shape
        whose outer entry of M·d may be zero, is in the op mix."""
        for i in range(100):
            ops = spec_ops(sample_case(1, i).spec)
            for op, nxt in zip(ops, ops[1:]):
                m = re.fullmatch(r"skew\((\w+),(\w+),[12]\)", op)
                if m and nxt == f"permute({m[1]},{m[2]})":
                    return
        pytest.fail("no skew-then-interchange pair in 100 cases")

    def test_sample_spec_on_single_loop_program(self):
        program = random_program(5, max_depth=1)
        layout = Layout(program)
        spec = sample_spec(layout, random.Random(0))
        parse_spec(layout, spec)


class TestStream:
    def test_stream_prefix_runs_clean(self):
        """A short prefix of the default stream upholds the contract."""
        for i in range(4):
            result = run_case(sample_case(0, i))
            assert not result.divergent, (i, result.verdict, result.detail)
