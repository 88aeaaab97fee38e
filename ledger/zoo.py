"""The benchmark's input programs and the seeded draws over them.

Everything a workload feeds the program is fixed here; ``--seed`` only
picks among alternatives of equal cost (which tile size or skew factor,
in which order, which array contents, which request follows which), so
runs with different seeds measure the same amount of work.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Kernel:
    """One ``repro.kernels`` factory and the specs tried on it.

    ``legal`` lists interchangeable Theorem-2-legal specs (the seed
    draws one); ``illegal`` is a spec Theorem 2 must reject, appealed to
    the symbolic oracle when ``symbolic`` is set; ``lead`` is the loop
    the completion procedure is asked to scan outermost."""

    legal: tuple[str, ...] = ()
    illegal: str | None = None
    symbolic: bool = False
    lead: str | None = None
    small: tuple[tuple[str, int], ...] = (("N", 8),)


def _sized(template: str, values=(4, 8, 16)) -> tuple[str, ...]:
    return tuple(template.format(v) for v in values)


def _skews(template: str) -> tuple[str, ...]:
    return _sized(template, (1, 2, 3))


_NT = (("N", 8), ("T", 3))

#: the whole zoo: every ``repro.kernels`` factory callable with no
#: arguments (``lu_factorization`` is an alias of ``lu``)
KERNELS: dict[str, Kernel] = {
    "simplified_cholesky": Kernel(_sized("tile(I,{})"), "permute(I,J)", lead="J"),
    "cholesky": Kernel(_sized("tile(K,{})"), "permute(K,I)", lead="K"),
    "running_example": Kernel(("permute(I,J)", "skew(I,J,1)", "skew(J,I,1)"), "align(S1,I,1)",
                              lead="J"),
    "augmentation_example": Kernel(_skews("skew(J,I,{})"), "permute(I,J)", lead="I"),
    "lu": Kernel(_sized("tile(J,{})"), "fuse(I)", lead="K"),
    "triangular_solve": Kernel(_skews("skew(J,I,{})"), "reverse(J)", lead="J"),
    "trmm": Kernel(_sized("tile(K,{})"), "reverse(K)", lead="J"),
    "forward_substitution": Kernel(_skews("skew(I,J,{})"), "permute(I,J)", lead="I"),
    "matmul": Kernel(("permute(I,K)", "permute(I,J)", "permute(J,K)"), "reverse(K)", lead="K"),
    "jacobi_1d": Kernel(_skews("skew(I,S,{})"), "fuse(I)", lead="S", small=_NT),
    "gauss_seidel_1d": Kernel(_skews("skew(I,S,{})"), "permute(S,I)", lead="S", small=_NT),
    # no dependences at all: nothing Theorem 2 could reject
    "blur_2d": Kernel(("permute(I,J)", "reverse(I)", "reverse(J)"), lead="J"),
    "gemver_like": Kernel(("permute(J,K)", "skew(J,K,1)", "skew(K,J,1)"), "permute(I,J)",
                          lead="I"),
    "seidel_2d": Kernel(_skews("skew(I,J,{})"), "reverse(J)", lead="I"),
    # both loops are named I, so no spec can address them: parse,
    # dependences and lowering only
    "sweep_pair": Kernel(),
    "syrk_like": Kernel(_sized("tile(J,{})"), "reverse(K)", lead="J"),
    "syrk": Kernel(("permute(I,J)", "permute(I,K)", "permute(J,K)"), "reverse(K)",
                   symbolic=True, lead="K", small=(("N", 8), ("M", 5))),
    "trsv": Kernel(_skews("skew(J,I,{})"), "reverse(J)", symbolic=True, lead="I"),
    "fdtd_1d": Kernel(_skews("skew(I,S,{})"), "permute(S,I)", symbolic=True, lead="S",
                      small=_NT),
}

#: programs the cold CLI and the warm daemon are driven with
CLI_PROGRAMS = ("cholesky", "trmm", "seidel_2d")
SERVICE_PROGRAMS = ("cholesky", "trmm", "seidel_2d", "syrk", "jacobi_1d")

#: a skew that stays legal for every positive factor, per served program
#: (the daemon's result-cache misses are fresh factors of these)
SERVICE_SKEW = {
    "cholesky": "skew(I,K,{})", "trmm": "skew(J,I,{})", "seidel_2d": "skew(I,J,{})",
    "syrk": "skew(J,I,{})", "jacobi_1d": "skew(I,S,{})",
}


def kernel_text(name: str) -> str:
    """The kernel as program text (what a ``.loop`` file or a request holds)."""
    from repro import kernels
    from repro.ir import program_to_str

    return program_to_str(getattr(kernels, name)())


def pinned_verdicts() -> dict[str, dict[str, str]]:
    """``ledger/expected.json``: kernel -> spec -> the verdict it must get."""
    return json.loads((Path(__file__).parent / "expected.json").read_text())["verdicts"]


def draw_specs(seed: int) -> dict[str, str]:
    """The legal spec each kernel is transformed with under ``seed``."""
    rng = random.Random(seed)
    return {name: rng.choice(k.legal) for name, k in KERNELS.items() if k.legal}


def shuffled(seed: int, items) -> list:
    out = list(items)
    random.Random(seed).shuffle(out)
    return out


def seeded_arrays(program, params, seed: int) -> dict[str, np.ndarray]:
    """Initial array contents drawn from ``seed``: positive, O(1), and
    diagonally dominant for square arrays so the factorizations stay
    well conditioned at every size."""
    env = dict(params)
    out = {}
    for decl in program.arrays:
        shape = tuple(hi.eval(env) - lo.eval(env) + 1 for lo, hi in decl.dims)
        rng = np.random.default_rng([seed, zlib.crc32(decl.name.encode())])
        data = rng.uniform(0.5, 1.5, size=shape)
        if len(shape) == 2 and shape[0] == shape[1]:
            data = (data + data.T) / 2 + np.eye(shape[0]) * (2.0 * shape[0])
        out[decl.name] = data
    return out
