"""§4.2 distribution/jamming — matrices and AST rewrites (jamming is
``fuse`` at offset 0)."""

import pytest

from repro.dependence import analyze_dependences
from repro.interp import ArrayStore, execute, outputs_close
from repro.ir import Loop, parse_program
from repro.transform import (
    distribute, distribution_legal, distribution_matrix, fuse, jamming_matrix,
)
from repro.util.errors import TransformError


class TestDistributeAST:
    def test_splits_into_two_loops(self, simp_chol):
        p2 = distribute(simp_chol, (0,), 1)
        assert len(p2.body) == 2
        assert all(isinstance(n, Loop) for n in p2.body)
        assert [s.label for s in p2.statements()] == ["S1", "S2"]

    def test_split_point_validation(self, simp_chol):
        with pytest.raises(TransformError):
            distribute(simp_chol, (0,), 0)
        with pytest.raises(TransformError):
            distribute(simp_chol, (0,), 2)

    def test_jam_restores(self, simp_chol):
        p2 = distribute(simp_chol, (0,), 1)
        p3 = fuse(p2, (0,))
        assert str(p3) == str(simp_chol)

    def test_jam_header_mismatch_rejected(self):
        # lower bounds differ by 1, upper bounds by 0: no constant offset
        p = parse_program(
            "param N\nreal A(N)\n"
            "do I = 1..N\n S1: A(I) = 1.0\nenddo\n"
            "do I = 2..N\n S2: A(I) = 2.0\nenddo"
        )
        with pytest.raises(TransformError, match="one constant offset"):
            fuse(p, (0,))
        with pytest.raises(TransformError, match="one header"):
            jamming_matrix(p, (0,))

    def test_distribute_semantics_when_legal(self):
        p = parse_program(
            "param N\nreal A(N), B(N)\n"
            "do I = 1..N\n S1: A(I) = f(I)\n S2: B(I) = A(I) * 2\nenddo"
        )
        p2 = distribute(p, (0,), 1)
        init = ArrayStore(p, {"N": 8}).snapshot()
        s1, _ = execute(p, {"N": 8}, arrays=init)
        s2, _ = execute(p2, {"N": 8}, arrays=init)
        assert outputs_close(s1.snapshot(), s2.snapshot())


class TestMatrices:
    def test_distribution_matrix_shape(self, simp_chol):
        m, p2 = distribution_matrix(simp_chol, (0,), 1)
        assert m.shape == (5, 4)

    def test_distribution_matrix_rows(self, simp_chol):
        """Eq-(1)-consistent version of the paper's §4.2 matrix (the
        paper's display swaps the last two rows — see EXPERIMENTS.md)."""
        m, _ = distribution_matrix(simp_chol, (0,), 1)
        assert m.tolist() == [
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
        ]

    def test_jamming_matrix_matches_paper(self, simp_chol):
        """§4.2's jamming matrix, reproduced exactly."""
        distributed = distribute(simp_chol, (0,), 1)
        m, fused = jamming_matrix(distributed, (0,))
        assert m.tolist() == [
            [0, 0, 1, 0, 0],
            [1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0],
            [0, 0, 0, 1, 0],
        ]
        assert str(fused) == str(simp_chol)

    def test_jam_then_distribute_roundtrip_on_matrices(self, simp_chol):
        dm, distributed = distribution_matrix(simp_chol, (0,), 1)
        jm, fused = jamming_matrix(distributed, (0,))
        # J . D maps original coords to original coords; loop rows must
        # be identity on the loop positions that survive
        prod = jm @ dm
        assert prod.shape == (4, 4)
        assert prod[0, 0] == 1  # I -> I
        assert prod[3, 3] == 1  # J -> J


class TestDistributionLegality:
    def test_illegal_on_simplified_cholesky(self, simp_chol):
        """§1 claim: distribution is not legal in the factorization
        codes (the S2->S1 back edge is carried by the split loop)."""
        deps = analyze_dependences(simp_chol)
        assert distribution_legal(deps, (0,), 1) is False

    def test_illegal_on_full_cholesky(self, chol):
        deps = analyze_dependences(chol)
        assert distribution_legal(deps, (0,), 1) is False
        assert distribution_legal(deps, (0,), 2) is False

    def test_illegal_on_lu(self, lu):
        deps = analyze_dependences(lu)
        assert distribution_legal(deps, (0,), 1) is False

    def test_legal_on_forward_only_loop(self):
        p = parse_program(
            "param N\nreal A(N), B(N)\n"
            "do I = 1..N\n S1: A(I) = f(I)\n S2: B(I) = A(I) * 2\nenddo"
        )
        deps = analyze_dependences(p)
        assert distribution_legal(deps, (0,), 1) is True

    def test_splitting_outer_with_carried_backedge_is_illegal(self):
        p = parse_program(
            "param N\nreal A(0:N+1,0:N+1), B(0:N+1,0:N+1)\n"
            "do T = 1..N\n"
            "  do I = 1..N\n S1: A(T,I) = B(T-1,I)\n enddo\n"
            "  do J = 1..N\n S2: B(T,J) = A(T,J)\n enddo\n"
            "enddo"
        )
        deps = analyze_dependences(p)
        # the S2->S1 back edge is carried by T itself: splitting T would
        # run every S1 before any S2, breaking the B(T-1) flow
        assert distribution_legal(deps, (0,), 1) is False

    def test_legal_when_backward_dep_carried_outside(self):
        p = parse_program(
            "param N\nreal A(0:N+1), B(0:N+1)\n"
            "do T = 1..N\n"
            "  do I = 1..N\n"
            "    S1: A(I) = B(I) + f(T)\n"
            "    S2: B(I) = A(I) * 2\n"
            "  enddo\n"
            "enddo"
        )
        deps = analyze_dependences(p)
        # S2->S1 back edge exists but is carried by the enclosing T loop;
        # distributing the inner I loop is therefore legal
        assert distribution_legal(deps, (0, 0), 1) is True

    def test_non_loop_path_rejected(self, simp_chol):
        deps = analyze_dependences(simp_chol)
        with pytest.raises(TransformError):
            distribution_legal(deps, (0, 0), 1)
