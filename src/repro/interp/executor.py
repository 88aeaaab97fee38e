"""Loop-nest interpreter (system S12).

Executes IR programs over numpy arrays.  This is the substrate that
stands in for the paper's compiler test-bed: every transformation in
the library is validated by running the source and transformed programs
on identical inputs and comparing results (and traces).

Arrays are Fortran-style with per-dimension declared ranges ``lo:hi``;
values are float64.  The interpreter optionally records an execution
trace (statement instances and the array cells they touch) used by the
trace-based dependence oracle and the cache simulator.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.ir.ast import Guard, Loop, Node, Program, Statement
from repro.ir.expr import (
    BUILTIN_FUNCTIONS, ArrayRef, BinOp, Call, Expr, FloatLit, IntLit, UnaryOp,
    VarRef,
)
from repro.obs import counter, timed
from repro.util.errors import InterpError

__all__ = [
    "ArrayStore", "ExecRecord", "Trace", "execute", "default_init", "declared_extents",
]


@dataclass
class ExecRecord:
    """One executed statement instance and the cells it touched."""

    label: str
    env: dict[str, int]
    reads: list[tuple[str, tuple[int, ...]]] = field(default_factory=list)
    writes: list[tuple[str, tuple[int, ...]]] = field(default_factory=list)


@dataclass
class Trace:
    """An execution trace: the sequence of statement instances."""

    records: list[ExecRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def instances(self) -> list[tuple[str, tuple[int, ...]]]:
        """(label, sorted-env-values) pairs in execution order."""
        return [(r.label, tuple(v for _, v in sorted(r.env.items()))) for r in self.records]

    def accesses(self) -> list[tuple[str, tuple[int, ...], bool]]:
        """Flat (array, index, is_write) sequence in execution order,
        reads before the write within each statement instance."""
        out = []
        for r in self.records:
            for a in r.reads:
                out.append((a[0], a[1], False))
            for a in r.writes:
                out.append((a[0], a[1], True))
        return out


class ArrayStore:
    """Named arrays with declared index ranges."""

    def __init__(self, program: Program, params: Mapping[str, int], init: Callable | None = None):
        self.params = dict(params)
        self.arrays: dict[str, np.ndarray] = {}
        self.lowers: dict[str, tuple[int, ...]] = {}
        init = init or default_init
        for name, (lowers, shape) in declared_extents(program, self.params).items():
            self.lowers[name] = lowers
            self.arrays[name] = init(name, shape)
        self.scalars: dict[str, float] = {}

    def _locate(self, name: str, idx: tuple[int, ...]) -> tuple[np.ndarray, tuple[int, ...]]:
        try:
            arr = self.arrays[name]
        except KeyError:
            raise InterpError(f"undeclared array {name!r}") from None
        lows = self.lowers[name]
        if len(idx) != arr.ndim:
            raise InterpError(f"{name} has rank {arr.ndim}, got {len(idx)} subscripts")
        pos = tuple(i - l for i, l in zip(idx, lows))
        for p, s in zip(pos, arr.shape):
            if not (0 <= p < s):
                raise InterpError(f"index {idx} out of declared range for {name}")
        return arr, pos

    def load(self, name: str, idx: tuple[int, ...]) -> float:
        arr, pos = self._locate(name, idx)
        return float(arr[pos])

    def store(self, name: str, idx: tuple[int, ...], value: float) -> None:
        arr, pos = self._locate(name, idx)
        arr[pos] = value

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.arrays.items()}


def declared_extents(
    program: Program, params: Mapping[str, int]
) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
    """``{array: (lower bounds, shape)}`` of every declaration at the
    given parameters, in declaration order; raises :class:`InterpError`
    for an empty extent."""
    out: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for decl in program.arrays:
        los = tuple(lo.eval(params) for lo, _ in decl.dims)
        shape = tuple(hi.eval(params) - lo + 1 for lo, (_, hi) in zip(los, decl.dims))
        if any(s <= 0 for s in shape):
            raise InterpError(f"array {decl.name} has empty shape {shape}")
        out[decl.name] = (los, shape)
    return out


def default_init(name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Deterministic, name-dependent initial array contents.

    Values are positive and O(1)-scaled so sqrt/division kernels stay
    well conditioned (important for the Cholesky workloads)."""
    # crc32, not hash(): str hashing is salted per-process (PYTHONHASHSEED),
    # which would give every worker of a --jobs fuzz run different inputs.
    rng = np.random.default_rng(zlib.crc32(name.encode("utf-8")))
    data = rng.uniform(0.5, 1.5, size=shape)
    if len(shape) == 2 and shape[0] == shape[1]:
        # make square arrays symmetric positive definite-ish
        data = (data + data.T) / 2 + np.eye(shape[0]) * (2.0 * shape[0])
    return data


@timed("interp.execute", attr_fn=lambda program, *a, **kw: {"program": program.name})
def execute(
    program: Program,
    params: Mapping[str, int] | None = None,
    arrays: Mapping[str, np.ndarray] | None = None,
    *,
    trace: bool = False,
    init: Callable | None = None,
    max_instances: int = 5_000_000,
) -> tuple[ArrayStore, Trace | None]:
    """Run a program; returns the final store and (optionally) a trace.

    ``arrays`` overrides initial contents (copied, never mutated).
    """
    params = dict(params or {})
    store = ArrayStore(program, params, init)
    if arrays:
        for k, v in arrays.items():
            if k not in store.arrays:
                raise InterpError(f"unknown array {k!r} in initial values")
            if store.arrays[k].shape != v.shape:
                raise InterpError(
                    f"shape mismatch for {k}: {store.arrays[k].shape} vs {v.shape}"
                )
            store.arrays[k] = np.array(v, dtype=float)
    t = Trace() if trace else None
    budget = [max_instances]

    env: dict[str, int] = dict(params)
    for node in program.body:
        _run(node, env, store, t, budget)
    counter("interp.instances", max_instances - budget[0])
    return store, t


def _run(node: Node, env: dict[str, int], store: ArrayStore, t: Trace | None, budget: list[int]) -> None:
    if isinstance(node, Statement):
        budget[0] -= 1
        if budget[0] < 0:
            raise InterpError("instance budget exhausted (runaway loop?)")
        record = ExecRecord(node.label, {k: v for k, v in env.items() if k not in store.params}) if t is not None else None
        value = _eval(node.rhs, env, store, record)
        if isinstance(node.lhs, ArrayRef):
            idx = tuple(_eval_int(s, env, store, record) for s in node.lhs.subscripts)
            store.store(node.lhs.array, idx, value)
            if record is not None:
                record.writes.append((node.lhs.array, idx))
        else:
            store.scalars[node.lhs.name] = value
            if record is not None:
                record.writes.append((node.lhs.name, ()))
        if t is not None:
            t.records.append(record)
        return
    if isinstance(node, Loop):
        lo = node.lower.eval(env)
        hi = node.upper.eval(env)
        rng = range(lo, hi + 1, node.step) if node.step > 0 else range(lo, hi - 1, node.step)
        saved = env.get(node.var, _MISSING)
        for v in rng:
            env[node.var] = v
            for child in node.body:
                _run(child, env, store, t, budget)
        if saved is _MISSING:
            env.pop(node.var, None)
        else:
            env[node.var] = saved
        return
    if isinstance(node, Guard):
        if all(c.satisfied_by(env) for c in node.conditions):
            for child in node.body:
                _run(child, env, store, t, budget)
        return
    raise InterpError(f"cannot execute node of type {type(node).__name__}")


_MISSING = object()


def _eval(e: Expr, env: Mapping[str, int], store: ArrayStore, record: ExecRecord | None) -> float:
    if isinstance(e, IntLit):
        return float(e.value)
    if isinstance(e, FloatLit):
        return e.value
    if isinstance(e, VarRef):
        if e.name in env:
            return float(env[e.name])
        if e.name in store.scalars:
            return store.scalars[e.name]
        raise InterpError(f"unbound variable {e.name!r}")
    if isinstance(e, ArrayRef):
        idx = tuple(_eval_int(s, env, store, record) for s in e.subscripts)
        if record is not None:
            record.reads.append((e.array, idx))
        return store.load(e.array, idx)
    if isinstance(e, UnaryOp):
        return -_eval(e.operand, env, store, record)
    if isinstance(e, BinOp):
        l = _eval(e.left, env, store, record)
        r = _eval(e.right, env, store, record)
        if e.op == "+":
            return l + r
        if e.op == "-":
            return l - r
        if e.op == "*":
            return l * r
        if e.op == "/":
            if r == 0:
                raise InterpError("division by zero during execution")
            return l / r
        if e.op == "%":
            return l % r
        raise InterpError(f"unknown operator {e.op}")  # pragma: no cover
    if isinstance(e, Call):
        args = [_eval(a, env, store, record) for a in e.args]
        return float(BUILTIN_FUNCTIONS[e.func](*args))
    raise InterpError(f"cannot evaluate {e!r}")


def _eval_int(e: Expr, env: Mapping[str, int], store: ArrayStore, record: ExecRecord | None) -> int:
    v = _eval(e, env, store, record)
    iv = int(round(v))
    if abs(v - iv) > 1e-9:
        raise InterpError(f"non-integer subscript value {v}")
    return iv
