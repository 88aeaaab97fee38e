"""Stencil and BLAS-style workloads complementing the factorizations.

These exercise the framework on the other canonical shapes: perfectly
nested stencils (skewing/wavefront material), imperfect reductions
(gemver-like chains), and time-stepped sweeps (fusion material).
"""

from __future__ import annotations

from repro.ir.ast import Program
from repro.ir.builder import nest
from repro.ir.parser import parse_program

__all__ = [
    "jacobi_1d", "gauss_seidel_1d", "blur_2d", "gemver_like", "seidel_2d",
    "sweep_pair", "syrk_like",
]


def jacobi_1d() -> Program:
    """Out-of-place 1-D Jacobi over T time steps (fusable sweeps)."""
    return parse_program(
        """
        param N, T
        real A(0:N+1), B(0:N+1)
        do S = 1..T
          do I = 1..N
            S1: B(I) = (A(I-1) + A(I) + A(I+1)) / 3
          enddo
          do J = 1..N
            S2: A(J) = B(J)
          enddo
        enddo
        """,
        "jacobi_1d",
    )


def gauss_seidel_1d() -> Program:
    """In-place sweep: carries a dependence in both loop dimensions
    (the classic skew-to-parallelize example)."""
    return parse_program(
        """
        param N, T
        real A(0:N+1)
        do S = 1..T
          do I = 1..N
            S1: A(I) = (A(I-1) + A(I) + A(I+1)) / 3
          enddo
        enddo
        """,
        "gauss_seidel_1d",
    )


def seidel_2d() -> Program:
    """In-place 2-D Gauss-Seidel sweep: both loops carry dependences,
    so neither vectorizes as written — but ``skew(I,J,1)`` makes ``J``
    DOALL, exposing the diagonal wavefronts the ``source-par`` backend
    executes one NumPy assignment per front (each front's accesses are
    array diagonals, which only the flat-view renderer can express)."""
    return parse_program(
        """
        param N
        real A(0:N+1,0:N+1)
        do I = 1..N
          do J = 1..N
            S1: A(I,J) = (A(I-1,J) + A(I,J-1) + A(I,J)) / 3
          enddo
        enddo
        """,
        "seidel_2d",
    )


def blur_2d() -> Program:
    """4-point out-of-place blur, built with the programmatic DSL."""
    return (
        nest("blur_2d", params=["N"])
        .array("A", (0, "N+1"), (0, "N+1"))
        .array("B", (0, "N+1"), (0, "N+1"))
        .loop("I", 1, "N")
        .loop("J", 1, "N")
        .stmt("S1", "B(I,J)", "(A(I-1,J) + A(I+1,J) + A(I,J-1) + A(I,J+1)) / 4")
        .end()
        .end()
        .build()
    )


def gemver_like() -> Program:
    """An imperfect chain: rank-1 update then matrix-vector product —
    two imperfect phases over the same array."""
    return parse_program(
        """
        param N
        real A(N,N), U(N), V(N), X(N), Y(N)
        do I = 1..N
          do J = 1..N
            S1: A(I,J) = A(I,J) + U(I)*V(J)
          enddo
          S2: X(I) = 0.0
          do K = 1..N
            S3: X(I) = X(I) + A(I,K)*Y(K)
          enddo
        enddo
        """,
        "gemver_like",
    )


def sweep_pair() -> Program:
    """Two adjacent identical loops with only forward dependences —
    the canonical fusion candidate."""
    return parse_program(
        """
        param N
        real A(0:N+1), B(0:N+1)
        do I = 1..N
          S1: A(I) = f(I)
        enddo
        do I = 1..N
          S2: B(I) = A(I) * 2
        enddo
        """,
        "sweep_pair",
    )


def syrk_like() -> Program:
    """Triangular symmetric update (imperfect triangular nest)."""
    return parse_program(
        """
        param N
        real C(N,N), A(N,N)
        do I = 1..N
          do J = 1..I
            do K = 1..N
              S1: C(I,J) = C(I,J) + A(I,K)*A(J,K)
            enddo
          enddo
        enddo
        """,
        "syrk_like",
    )
