"""Set-associative LRU cache simulator (system S13).

Stands in for 1996 hardware when evaluating the paper's motivating
claim that different loop orders of the *same* computation (e.g. the
six Cholesky permutations) differ materially in performance.  The
simulator replays an execution trace's array accesses against a
parameterized cache and reports hit/miss counts.

The address stream is derived by laying arrays out contiguously in
row-major order at 8 bytes per element (:func:`array_layout`), either
from an execution trace (:func:`trace_addresses`) or straight from the
program, without executing it (:func:`program_addresses`; the two agree
element for element).  The hot loop is vectorized with numpy per the
HPC guides: set indices and tags are computed for the whole trace at
once, and only the per-set LRU update runs in Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.interp.executor import ArrayStore, Trace, declared_extents
from repro.ir.ast import Guard, Loop, Node, Program, Statement
from repro.ir.expr import (
    BUILTIN_FUNCTIONS, ArrayRef, BinOp, Call, Expr, FloatLit, IntLit, UnaryOp, VarRef,
    as_affine,
)
from repro.obs import counter, timed
from repro.polyhedra.affine import LinExpr
from repro.polyhedra.constraint import Constraint
from repro.util.errors import InterpError, IRError

__all__ = [
    "CacheConfig", "CacheStats", "program_addresses", "simulate_cache", "trace_addresses",
]


@dataclass(frozen=True)
class CacheConfig:
    """Cache geometry.  Defaults: 32 KiB, 4-way, 64-byte lines."""

    size_bytes: int = 32 * 1024
    line_bytes: int = 64
    ways: int = 4
    element_bytes: int = 8

    def __post_init__(self):
        if self.size_bytes % (self.line_bytes * self.ways) != 0:
            raise InterpError("cache size must be a multiple of line_bytes * ways")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)


@dataclass
class CacheStats:
    accesses: int
    misses: int

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def __str__(self) -> str:
        return f"{self.accesses} accesses, {self.misses} misses ({self.miss_rate:.2%})"


#: Bytes per array element: every array holds float64.
ELEMENT_BYTES = 8


@dataclass(frozen=True)
class ArrayPlace:
    """Where one array lives in the simulated address space."""

    base: int  # byte address of the first element
    lowers: tuple[int, ...]  # declared lower bound per dimension
    shape: tuple[int, ...]
    strides: tuple[int, ...]  # row-major, in elements


def array_layout(
    extents: Mapping[str, tuple[tuple[int, ...], tuple[int, ...]]],
    element_bytes: int = ELEMENT_BYTES,
) -> dict[str, ArrayPlace]:
    """Lay ``{array: (lowers, shape)}`` out contiguously in row-major
    order, each array starting on a fresh 4 KiB page so that arrays
    never alias by accident."""
    places: dict[str, ArrayPlace] = {}
    cursor = 0
    for name, (lowers, shape) in extents.items():
        strides = []
        size = 1
        for dim in reversed(shape):
            strides.append(size)
            size *= dim
        places[name] = ArrayPlace(cursor, tuple(lowers), tuple(shape), tuple(reversed(strides)))
        cursor = (cursor + size * element_bytes + 4095) // 4096 * 4096
    return places


@timed("interp.trace_addresses")
def trace_addresses(
    trace: Trace, store: ArrayStore, element_bytes: int = ELEMENT_BYTES
) -> np.ndarray:
    """Byte addresses of every array access in the trace, in order."""
    places = array_layout(
        {name: (store.lowers[name], arr.shape) for name, arr in store.arrays.items()},
        element_bytes,
    )
    out = np.empty(sum(len(r.reads) + len(r.writes) for r in trace.records), dtype=np.int64)
    k = 0
    for rec in trace.records:
        for name, idx in rec.reads + rec.writes:
            place = places.get(name)
            if place is None:
                continue  # scalar
            flat = sum((i - l) * st for i, l, st in zip(idx, place.lowers, place.strides))
            out[k] = place.base + flat * element_bytes
            k += 1
    return out[:k]


#: Longest run of one innermost loop built as a single NumPy block; a
#: longer loop is cut into runs of this size, so memory stays bounded
#: and the instance budget is counted as the walk goes.
BLOCK_ITERATIONS = 1 << 16

_SINGLE = np.zeros(1, dtype=np.int64)
_MISSING = object()


@timed("interp.program_addresses", attr_fn=lambda program, *a, **kw: {"program": program.name})
def program_addresses(
    program: Program,
    params: Mapping[str, int] | None = None,
    *,
    max_instances: int = 5_000_000,
) -> tuple[np.ndarray, int]:
    """The program's address stream and statement-instance count,
    without computing a single value.

    The addresses equal ``trace_addresses(*execute(program, params,
    trace=True))`` element for element: within an instance the reads in
    :meth:`Statement.reads` order, then the write.  Loops and guards
    above an innermost loop are walked one iteration at a time; every
    innermost loop (and every loop-free run of statements between loops)
    is one NumPy block whose rows are ``offsets + v ⊗ coefficients``,
    with guarded statements masked out.  Subscripts and conditions that
    are not affine (the exact ``/`` and ``%`` of non-unimodular code) are
    evaluated on the block's integer arrays with the interpreter's
    semantics.

    Raises :class:`InterpError` where the interpreter would: for an
    out-of-range or non-integer subscript, an undeclared array, or more
    than ``max_instances`` instances.  A subscript must not read an
    array or scalar value (dependence analysis already requires affine,
    value-free subscripts); one that does raises too.  Errors that only
    values show, such as a division by zero on the right-hand side, are
    not seen: run the interpreter for those.
    """
    params = dict(params or {})
    places = array_layout(declared_extents(program, params))
    walk = _AddressWalk(max_instances)
    walk.run(_plan(program.body, places), params)
    counter("interp.addressed_instances", walk.instances)
    if not walk.chunks:
        return np.empty(0, dtype=np.int64), walk.instances
    return np.concatenate(walk.chunks), walk.instances


def _loop_free(nodes) -> bool:
    return all(
        isinstance(n, Statement) or (isinstance(n, Guard) and _loop_free(n.body))
        for n in nodes
    )


def _plan(nodes, places: Mapping[str, ArrayPlace]) -> list:
    """``(node, block, children)`` steps: a loop-free run of statements
    is a block run once (``node`` None); an innermost loop carries the
    block of its body; other loops and guards carry a nested plan."""
    plan: list = []
    run: list[Node] = []

    def flush() -> None:
        if run:
            plan.append((None, _Block(tuple(run), None, places), None))
            run.clear()

    for node in nodes:
        if isinstance(node, Statement) or (isinstance(node, Guard) and _loop_free(node.body)):
            run.append(node)
            continue
        flush()
        if isinstance(node, Loop) and _loop_free(node.body):
            plan.append((node, _Block(node.body, node.var, places), None))
        elif isinstance(node, (Loop, Guard)):
            plan.append((node, None, _plan(node.body, places)))
        else:
            raise InterpError(f"cannot execute node of type {type(node).__name__}")
    flush()
    return plan


class _Block:
    """Loop-free nodes compiled once for a walk over one inner variable
    (``var`` None: a single run at the current environment).

    Every affine quantity — an access's byte address, one subscript, an
    affine guard — is ``C + M @ e + S * v`` for the values ``e`` of the
    outer variables ``names`` and the inner values ``v``."""

    def __init__(self, nodes, var: str | None, places: Mapping[str, ArrayPlace]):
        self.var = var
        self.guards: list[tuple[int, list]] = []  # (parent guard or -1, conditions)
        self.stmt_guard: list[int] = []
        self.stmt_error: list[str | None] = []
        col_stmt: list[int] = []
        addrs: list[tuple[int, dict[str, int], int]] = []  # (column, coeffs, constant)
        dims: list[tuple[LinExpr, int, int, int, str]] = []  # (subscript, lo, hi, stmt, array)
        self.nonaffine: list[tuple[int, int, tuple[Expr, ...], ArrayPlace]] = []
        conds: list[list] = []

        def visit(children, parent: int) -> None:
            for node in children:
                if isinstance(node, Guard):
                    self.guards.append((parent, []))
                    conds.append(list(node.conditions))
                    visit(node.body, len(self.guards) - 1)
                    continue
                stmt = len(self.stmt_guard)
                self.stmt_guard.append(parent)
                error = None
                for ref in node.reads() + node.writes():
                    place = places.get(ref.array)
                    if place is None:
                        error = error or f"undeclared array {ref.array!r}"
                        continue
                    if len(ref.subscripts) != len(place.shape):
                        error = error or (f"{ref.array} has rank {len(place.shape)}, "
                                          f"got {len(ref.subscripts)} subscripts")
                        continue
                    col = len(col_stmt)
                    col_stmt.append(stmt)
                    try:
                        subs = [as_affine(e) for e in ref.subscripts]
                    except IRError:
                        self.nonaffine.append((col, stmt, ref.subscripts, place))
                        continue
                    coeffs: dict[str, int] = {}
                    const = place.base
                    scale = [st * ELEMENT_BYTES for st in place.strides]
                    for sub, lo, extent, sc in zip(subs, place.lowers, place.shape, scale):
                        for name, c in sub.coeffs.items():
                            coeffs[name] = coeffs.get(name, 0) + c * sc
                        const += (sub.constant - lo) * sc
                        dims.append((sub, lo, lo + extent - 1, stmt, ref.array))
                    addrs.append((col, coeffs, const))
                self.stmt_error.append(error)

        visit(nodes, -1)
        names = set()
        for _, coeffs, _ in addrs:
            names.update(coeffs)
        for sub, *_ in dims:
            names.update(sub.variables())
        for cs in conds:
            for c in cs:
                if isinstance(c, Constraint):
                    names.update(c.variables())
        names.discard(var)
        self.names = tuple(sorted(names))

        def affine(forms: list[tuple[dict[str, int], int]]):
            const = np.array([k for _, k in forms], dtype=np.int64)
            outer = np.array([[co.get(n, 0) for n in self.names] for co, _ in forms],
                             dtype=np.int64).reshape(len(forms), len(self.names))
            inner = np.array([co.get(var, 0) for co, _ in forms], dtype=np.int64)
            return const, outer, inner

        self.ncols = len(col_stmt)
        self.col_stmt = np.array(col_stmt, dtype=np.intp)
        self.addr_cols = np.array([col for col, _, _ in addrs], dtype=np.intp)
        # addresses and subscripts share one system: one product per run
        self.naddr = len(addrs)
        self.const, self.outer, inner = affine(
            [(co, k) for _, co, k in addrs] + [(sub.coeffs, sub.constant) for sub, *_ in dims])
        self.addr_inner, self.dim_inner = inner[:self.naddr], inner[self.naddr:]
        self.dim_lo = np.array([d[1] for d in dims], dtype=np.int64)
        self.dim_hi = np.array([d[2] for d in dims], dtype=np.int64)
        self.dim_stmt = np.array([d[3] for d in dims], dtype=np.intp)
        self.dim_array = [d[4] for d in dims]
        for (_, compiled), cs in zip(self.guards, conds):
            for c in cs:
                if isinstance(c, Constraint):
                    row = affine([(c.expr.coeffs, c.expr.constant)])
                    compiled.append((row, c.is_equality()))
                else:
                    compiled.append((None, c))
        self.simple = not self.guards and not self.nonaffine
        self.error = next((err for err in self.stmt_error if err is not None), None)


class _AddressWalk:
    """Mutable state of one :func:`program_addresses` walk."""

    def __init__(self, max_instances: int):
        self.max_instances = max_instances
        self.instances = 0
        self.chunks: list[np.ndarray] = []

    def run(self, plan: list, env: dict[str, int]) -> None:
        for node, block, children in plan:
            if node is None:
                self.emit(block, env, _SINGLE)
            elif isinstance(node, Guard):
                if all(c.satisfied_by(env) for c in node.conditions):
                    self.run(children, env)
            else:
                lo = node.lower.eval(env)
                hi = node.upper.eval(env)
                stop = hi + 1 if node.step > 0 else hi - 1
                values = range(lo, stop, node.step)
                if block is not None:
                    for start in range(0, len(values), BLOCK_ITERATIONS):
                        part = values[start:start + BLOCK_ITERATIONS]
                        self.emit(block, env, np.arange(
                            part.start, part.stop, part.step, dtype=np.int64))
                    continue
                saved = env.get(node.var, _MISSING)
                for v in values:
                    env[node.var] = v
                    self.run(children, env)
                if saved is _MISSING:
                    env.pop(node.var, None)
                else:
                    env[node.var] = saved

    def emit(self, b: _Block, env: Mapping[str, int], v: np.ndarray) -> None:
        try:
            e = np.array([env[name] for name in b.names], dtype=np.int64)
        except KeyError as exc:
            raise InterpError(f"unbound variable {exc.args[0]!r}") from None
        n = v.size
        at = b.const + b.outer @ e
        rows = at[:b.naddr] + np.multiply.outer(v, b.addr_inner)
        if b.simple:
            # every statement runs at every iteration
            self.count(n * len(b.stmt_error))
            if b.error is not None:
                raise InterpError(b.error)
            _check_ranges(b, at, v[0], v[-1], None)
            self.chunks.append(rows.ravel())
            return
        masks = _statement_masks(b, env, e, v)
        self.count(sum(n if m is None else int(np.count_nonzero(m)) for m in masks))
        for m, error in zip(masks, b.stmt_error):
            if error is not None and (m is None or m.any()):
                raise InterpError(error)
        _check_ranges(b, at, *_running_ends(v, masks))
        mat = np.empty((n, b.ncols), dtype=np.int64)
        mat[:, b.addr_cols] = rows
        for col, stmt, subs, place in b.nonaffine:
            mat[:, col] = _evaluated_addresses(b, env, v, masks[stmt], subs, place)
        if b.guards:
            active = np.ones((n, len(masks)), dtype=bool)
            for stmt, m in enumerate(masks):
                if m is not None:
                    active[:, stmt] = m
            self.chunks.append(mat[active[:, b.col_stmt]])
        else:
            self.chunks.append(mat.ravel())

    def count(self, instances: int) -> None:
        self.instances += instances
        if self.instances > self.max_instances:
            raise InterpError("instance budget exhausted (runaway loop?)")


def _statement_masks(b: _Block, env, e: np.ndarray, v: np.ndarray) -> list:
    """Per statement, the iterations it runs at (None: all of them).
    A guard's conditions are tested in order, each only where the ones
    before it (and the enclosing guards) held, as the interpreter's
    short-circuit does."""
    guard_masks: list[np.ndarray] = []
    for parent, conditions in b.guards:
        m = np.ones(v.size, dtype=bool) if parent < 0 else guard_masks[parent].copy()
        for row, cond in conditions:
            if not m.any():
                break
            if row is not None:
                const, outer, inner = row
                val = const[0] + outer[0] @ e + inner[0] * v
                m &= (val == 0) if cond else (val >= 0)
                continue
            idx = np.flatnonzero(m)
            val = _exact_int_values(cond.expr, env, b.var, v[idx])
            ok = np.broadcast_to((val == 0) if cond.is_equality() else (val >= 0), idx.shape)
            m[idx[~ok]] = False
        guard_masks.append(m)
    return [None if g < 0 else guard_masks[g] for g in b.stmt_guard]


def _running_ends(v: np.ndarray, masks: list):
    """Per statement, the first and last inner value it runs at, and
    whether it runs at all."""
    first = np.full(len(masks), v[0], dtype=np.int64)
    last = np.full(len(masks), v[-1], dtype=np.int64)
    running = np.ones(len(masks), dtype=bool)
    for stmt, m in enumerate(masks):
        if m is None:
            continue
        idx = np.flatnonzero(m)
        if idx.size:
            first[stmt], last[stmt] = v[idx[0]], v[idx[-1]]
        else:
            running[stmt] = False
    return first, last, running


def _check_ranges(b: _Block, at: np.ndarray, first, last, running) -> None:
    """Every affine subscript inside its declared range.  A subscript is
    monotone in the inner variable, so checking each statement's first
    and last running iteration covers all of them.  ``first``/``last``
    are per statement, or scalars when every statement runs throughout
    (``running`` None)."""
    if not b.dim_stmt.size:
        return
    if running is not None:
        first, last = first[b.dim_stmt], last[b.dim_stmt]
    dims = at[b.naddr:]
    lo = dims + b.dim_inner * first
    hi = dims + b.dim_inner * last
    bad = (np.minimum(lo, hi) < b.dim_lo) | (np.maximum(lo, hi) > b.dim_hi)
    if running is not None:
        bad &= running[b.dim_stmt]
    if bad.any():
        j = int(np.flatnonzero(bad)[0])
        raise InterpError(f"index out of declared range for {b.dim_array[j]}")


def _evaluated_addresses(b: _Block, env, v: np.ndarray, mask, subs,
                         place: ArrayPlace) -> np.ndarray:
    """One non-affine access's addresses at the iterations its statement
    runs at (0 elsewhere), subscripts evaluated as the interpreter does:
    in floating point, then required to be integers in range."""
    idx = np.arange(v.size) if mask is None else np.flatnonzero(mask)
    out = np.zeros(v.size, dtype=np.int64)
    if not idx.size:
        return out
    flat = np.zeros(idx.size, dtype=np.int64)
    for sub, lo, extent, stride in zip(subs, place.lowers, place.shape, place.strides):
        with np.errstate(all="ignore"):
            x = np.broadcast_to(_float_values(sub, env, b.var, v[idx]), idx.shape)
        iv = np.rint(x)
        bad = np.abs(x - iv) > 1e-9
        if bad.any():
            raise InterpError(f"non-integer subscript value {x[np.flatnonzero(bad)[0]]}")
        pos = iv.astype(np.int64) - lo
        if ((pos < 0) | (pos >= extent)).any():
            raise InterpError("index out of declared range")
        flat += pos * stride
    out[idx] = place.base + flat * ELEMENT_BYTES
    return out


def _float_values(e: Expr, env, var: str | None, v: np.ndarray):
    """A subscript at the inner values ``v``, in the interpreter's
    floating-point semantics (``/`` is true division, ``%`` floors)."""
    if isinstance(e, (IntLit, FloatLit)):
        return float(e.value)
    if isinstance(e, VarRef):
        if e.name == var:
            return v.astype(np.float64)
        if e.name in env:
            return float(env[e.name])
        raise InterpError(f"subscript reads {e.name!r}, which is not a loop variable or parameter")
    if isinstance(e, UnaryOp):
        return -_float_values(e.operand, env, var, v)
    if isinstance(e, BinOp):
        l = _float_values(e.left, env, var, v)
        r = _float_values(e.right, env, var, v)
        if e.op == "+":
            return l + r
        if e.op == "-":
            return l - r
        if e.op == "*":
            return l * r
        if np.any(np.asarray(r) == 0):
            if e.op == "/":
                raise InterpError("division by zero during execution")
            raise ZeroDivisionError("float modulo")
        return l / r if e.op == "/" else np.mod(l, r)
    if isinstance(e, Call):
        args = np.broadcast_arrays(*(np.asarray(_float_values(a, env, var, v)) for a in e.args))
        fn = BUILTIN_FUNCTIONS[e.func]
        return np.array([float(fn(*xs)) for xs in zip(*(a.ravel().tolist() for a in args))],
                        dtype=np.float64).reshape(args[0].shape)
    if isinstance(e, ArrayRef):
        raise InterpError(f"subscript reads array {e.array!r}; its address depends on values")
    raise InterpError(f"cannot evaluate {e!r}")


def _exact_int_values(e: Expr, env, var: str | None, v: np.ndarray):
    """An :class:`ExprCondition` at the inner values ``v``, in its exact
    integer semantics: ``/`` must divide exactly, ``%`` floors."""
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, VarRef):
        if e.name == var:
            return v
        try:
            return int(env[e.name])
        except KeyError:
            raise IRError(f"unbound variable {e.name!r} in condition") from None
    if isinstance(e, UnaryOp):
        return -_exact_int_values(e.operand, env, var, v)
    if isinstance(e, BinOp) and e.op in ("+", "-", "*", "%", "/"):
        l = _exact_int_values(e.left, env, var, v)
        r = _exact_int_values(e.right, env, var, v)
        if e.op == "+":
            return l + r
        if e.op == "-":
            return l - r
        if e.op == "*":
            return l * r
        if np.any(np.asarray(r) == 0):
            raise ZeroDivisionError("integer division or modulo by zero")
        if e.op == "%":
            return np.remainder(l, r)
        q, rem = np.divmod(l, r)
        if np.any(rem != 0):
            raise IRError(f"inexact division in condition {e}")
        return q
    raise IRError(f"cannot evaluate {e} as an integer condition")


@timed("interp.cache_sim")
def simulate_cache(addresses: np.ndarray, config: CacheConfig = CacheConfig()) -> CacheStats:
    """Replay an address stream through a set-associative LRU cache."""
    if addresses.size == 0:
        return CacheStats(0, 0)
    lines = addresses // config.line_bytes
    sets = (lines % config.num_sets).astype(np.int64)
    tags = (lines // config.num_sets).astype(np.int64)

    ways = config.ways
    misses = 0
    # per-set LRU as ordered lists (most recent last)
    state: list[list[int]] = [[] for _ in range(config.num_sets)]
    for s, t in zip(sets.tolist(), tags.tolist()):
        entry = state[s]
        try:
            entry.remove(t)
            entry.append(t)
        except ValueError:
            misses += 1
            entry.append(t)
            if len(entry) > ways:
                entry.pop(0)
    counter("cache.accesses", int(addresses.size))
    counter("cache.misses", misses)
    return CacheStats(int(addresses.size), misses)
