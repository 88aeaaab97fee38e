"""System transformation operations: rename, partial eval, conjoin."""

import pytest

from repro.polyhedra import Feasibility, System, eq, ge, le, var
from repro.util.errors import PolyhedronError

x, y, N = var("x"), var("y"), var("N")


class TestRename:
    def test_rename_preserves_semantics(self):
        s = System([ge(x, 1), le(x, N)])
        r = s.rename({"x": "z"})
        assert r.satisfied_by({"z": 3, "N": 5})
        assert not r.satisfied_by({"z": 0, "N": 5})

    def test_rename_infeasible_stays(self):
        s = System([ge(1, 2)])
        assert s.rename({"x": "z"}).is_trivially_false()


class TestEvalPartial:
    def test_pins_variable(self):
        s = System([ge(x, y), le(x, N)])
        p = s.eval_partial({"y": 4})
        assert p.satisfied_by({"x": 4, "N": 9})
        assert not p.satisfied_by({"x": 3, "N": 9})

    def test_can_expose_contradiction(self):
        s = System([ge(x, y), le(x, y - 1)])
        pinned = s.eval_partial({"y": 0})
        # x >= 0 and x <= -1: not syntactically false, but infeasible
        assert pinned.feasible() is Feasibility.INFEASIBLE


class TestConjoin:
    def test_false_absorbs(self):
        f = System([ge(1, 2)])
        t = System([ge(x, 0)])
        assert t.conjoin(f).is_trivially_false()
        assert f.conjoin(t).is_trivially_false()

    def test_and_on_false_is_noop(self):
        f = System([ge(1, 2)])
        assert f.and_(ge(x, 0)).is_trivially_false()


class TestVarRange:
    def test_equality_pin(self):
        s = System([eq(x, 7)])
        assert s.var_range("x") == (7, 7)

    def test_range_through_other_vars(self):
        s = System([ge(x, y), ge(y, 3), le(x, 10)])
        lo, hi = s.var_range("x")
        assert (lo, hi) == (3, 10)

    def test_infeasible_raises(self):
        s = System([ge(x, y + 1), le(x, y - 1)])
        with pytest.raises(PolyhedronError):
            s.var_range("x")


class TestFeasibilityCorners:
    def test_single_point(self):
        s = System([eq(x, 2), eq(y, 2), eq(x, y)])
        assert s.feasible() is Feasibility.FEASIBLE

    def test_contradictory_equalities(self):
        s = System([eq(x, 2), eq(x, 3)])
        assert s.feasible() is Feasibility.INFEASIBLE

    def test_unbounded_feasible(self):
        s = System([ge(x, 0)])
        assert s.feasible() is Feasibility.FEASIBLE

    def test_repr_readable(self):
        assert "x" in repr(System([ge(x, 0)]))
        assert "infeasible" in repr(System([ge(1, 2)]))


class TestPickle:
    def test_a_system_travels_by_name_not_by_interned_id(self):
        """Interned variable ids are per process, so a pickled system must
        mean the same constraints in a process that interned names in
        another order."""
        import os
        import pickle
        import subprocess
        import sys
        from pathlib import Path

        import repro

        s = System([ge(x, 1), le(x, N), eq(y, x + 2)])
        code = (
            "import pickle, sys\n"
            "from repro.polyhedra import System, ge, var\n"
            "System([ge(var('zz'), 0), ge(var('N'), var('y'))])  # intern other names first\n"
            "s = pickle.loads(sys.stdin.buffer.read())\n"
            "print(repr(s), s.satisfied_by({'x': 3, 'y': 5, 'N': 4}))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], input=pickle.dumps(s), capture_output=True,
            check=True, env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
        ).stdout.decode().strip()
        assert out == f"{s!r} True"
        assert pickle.loads(pickle.dumps(System([ge(1, 2)]))).is_trivially_false()
