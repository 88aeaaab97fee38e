"""Equivalence oracles and the trace-based dependence ground truth."""

import numpy as np

from repro.interp import (
    check_equivalence, execute, ground_truth_kinded, outputs_close,
    same_instances,
)
from repro.interp.equivalence import instance_keys
from repro.ir import parse_program


SRC = "param N\nreal A(0:N)\ndo I = 1..N\n S1: A(I) = A(I-1)\nenddo"


def conflict_pairs(t):
    """The trace's dependences as ordered position pairs, kinds dropped."""
    return sorted({(a, b) for a, b, _ in ground_truth_kinded(t)})


class TestGroundTruth:
    def test_flow_chain(self):
        p = parse_program(SRC)
        _, t = execute(p, {"N": 4}, trace=True)
        deps = conflict_pairs(t)
        assert deps == [(0, 1), (1, 2), (2, 3)]

    def test_anti_and_output(self):
        p = parse_program(
            "param N\nreal A(0:N+1)\n"
            "do I = 1..N\n S1: A(I) = A(I+1)\nenddo\n"
            "do J = 1..N\n S2: A(J) = 0.0\nenddo"
        )
        _, t = execute(p, {"N": 3}, trace=True)
        deps = conflict_pairs(t)
        # anti: read A(I+1) then write A(I+1) at next I; output: S1 then S2
        assert (0, 1) in deps
        assert any(b >= 3 for _, b in deps)  # cross-loop output deps

    def test_no_deps_when_independent(self):
        p = parse_program("param N\nreal A(N)\ndo I = 1..N\n S1: A(I) = 1.0\nenddo")
        _, t = execute(p, {"N": 4}, trace=True)
        assert conflict_pairs(t) == []


class TestOracles:
    def test_same_program_equivalent(self):
        p = parse_program(SRC)
        rep = check_equivalence(p, p, {"N": 5})
        assert rep["ok"]

    def test_reversed_recurrence_not_equivalent(self):
        p = parse_program(SRC)
        q = parse_program(
            "param N\nreal A(0:N)\ndo I = N..1, -1\n S1: A(I) = A(I-1)\nenddo"
        )
        rep = check_equivalence(p, q, {"N": 5})
        assert rep["same_instances"]
        assert rep["dependence_violations"]
        assert not rep["ok"]

    def test_different_instances_detected(self):
        p = parse_program(SRC)
        q = parse_program(
            "param N\nreal A(0:N)\ndo I = 1..N-1\n S1: A(I) = A(I-1)\nenddo"
        )
        rep = check_equivalence(p, q, {"N": 5})
        assert not rep["same_instances"]

    def test_reversal_of_independent_loop_ok(self):
        p = parse_program("param N\nreal A(N)\ndo I = 1..N\n S1: A(I) = f(I)\nenddo")
        q = parse_program("param N\nreal A(N)\ndo I = N..1, -1\n S1: A(I) = f(I)\nenddo")
        rep = check_equivalence(p, q, {"N": 6})
        assert rep["ok"]

    def test_outputs_close_shape_mismatch(self):
        assert not outputs_close({"A": np.zeros(3)}, {"B": np.zeros(3)})

    def test_env_map_translates_names(self):
        p = parse_program("param N\nreal A(N)\ndo I = 1..N\n S1: A(I) = f(I)\nenddo")
        q = parse_program("param N\nreal A(N)\ndo T = 1..N\n S1: A(T) = f(T)\nenddo")
        rep = check_equivalence(
            p, q, {"N": 4}, env_map=lambda label, env: (env["T"],)
        )
        assert rep["ok"]

    def test_instance_keys_default(self):
        p = parse_program(SRC)
        _, t = execute(p, {"N": 3}, trace=True)
        keys = instance_keys(p, t)
        assert keys == [("S1", (1,)), ("S1", (2,)), ("S1", (3,))]
