"""Constraint systems (rational polyhedra with integer semantics).

A :class:`System` is a conjunction of linear constraints stored the way
the Omega test stores them (Pugh, *The Omega test*, SC 1991): as integer
rows.  Variable names are interned once per process into small ids; a
system keeps the sorted ids that occur in it (its *columns*) and one
``(is_equality, row)`` pair per constraint, the row holding the column
coefficients and then the constant: ``2*i - N + 3 >= 0`` over columns
``(i, N)`` is ``(False, (2, -1, 3))``.  Normalisation, deduplication,
the memo key and every Fourier–Motzkin step are tuple arithmetic.
:class:`~repro.polyhedra.constraint.Constraint` is the IR-boundary type:
systems are built from constraints or from ``(is_equality, terms,
constant)`` triples, and readers get constraint views built on first use.
"""

from __future__ import annotations

import enum
import threading
import time
from math import gcd
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from repro.obs import counter, current_session, event, histogram
from repro.polyhedra import engine as _engine
from repro.polyhedra.affine import LinExpr
from repro.polyhedra.constraint import Constraint
from repro.util.errors import PolyhedronError

__all__ = ["System", "Feasibility", "FM_ROW_BUDGET"]

#: Work budget of a feasibility query: the most constraints one of its
#: elimination steps may produce.  A step over it makes the query
#: :data:`Feasibility.UNKNOWN` (read as "dependent" by dependence
#: analysis), uncached.  The zoo's and the fuzz stream's largest step is
#: a few dozen constraints.
FM_ROW_BUDGET = 4096


class Feasibility(enum.Enum):
    """Outcome of an integer feasibility query."""

    INFEASIBLE = "infeasible"
    FEASIBLE = "feasible"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise PolyhedronError(
            "Feasibility is three-valued; compare against Feasibility members explicitly"
        )


class _OverBudget(Exception):
    """An elimination step of a feasibility query exceeded :data:`FM_ROW_BUDGET`."""


_IDS: dict[str, int] = {}  # the process-wide variable order
_NAMES: list[str] = []
_INTERN_LOCK = threading.Lock()


def _intern(name: str) -> int:
    with _INTERN_LOCK:
        i = _IDS.get(name)
        if i is None:
            # the name goes into _NAMES before its id is published:
            # readers look ids up in _IDS without the lock
            i = len(_NAMES)
            _NAMES.append(name)
            _IDS[name] = i
    return i


def _memo(key, compute, timed: bool = False):
    """``compute()`` through the query engine under ``key()`` (stored
    unless it raises).  A timed query adds its latency to ``fm.query_ns``,
    or to ``fm.cache_hit_ns`` when the engine answered; the histograms
    cost nothing when no obs session is listening."""
    t0 = time.perf_counter_ns() if timed and current_session() is not None else None
    eng = _engine.active()
    k = key() if eng is not None else None
    value = _engine.MISS if eng is None else eng.get(k)
    hit = value is not _engine.MISS
    if not hit:
        value = compute()
        if eng is not None:
            eng.put(k, value)
    if t0 is not None:
        histogram("fm.cache_hit_ns" if hit else "fm.query_ns", time.perf_counter_ns() - t0)
    return value


def _norm(e: bool, r: tuple):
    """Row ``r`` divided by the gcd of its coefficients (an inequality's
    constant floored): ``(e, row)``, or ``None`` when trivially true and
    ``()`` when trivially false."""
    g = gcd(*r[:-1])
    if g == 1:
        return e, r
    k = r[-1]
    if g == 0:
        return None if (k == 0 if e else k >= 0) else ()
    if e and k % g:
        return ()
    return e, tuple([c // g for c in r])


def _dense(items) -> tuple[tuple[int, ...], list]:
    """Columns and rows of ``(is_equality, terms, constant)`` triples."""
    ids, staged = _IDS, []
    for e, terms, k in items:
        staged.append((e, [(ids[n] if n in ids else _intern(n), c) for n, c in terms], k))
    cols = tuple(sorted({v for _, ts, _ in staged for v, _ in ts}))
    at = {v: i for i, v in enumerate(cols)}
    rows = []
    for e, ts, k in staged:
        w = [0] * len(cols)
        for v, c in ts:
            w[at[v]] += c
        w.append(k)
        rows.append(_norm(bool(e), tuple(w)))
    return cols, rows


class System:
    """An immutable conjunction of affine constraints.

    Constraints are normalised (coefficients divided by their gcd, an
    inequality's constant floored), duplicates and trivially true ones
    dropped, in first-occurrence order; a trivially false constraint
    collapses the system to a canonical infeasible form.
    """

    __slots__ = ("_cols", "_rows", "_false", "_key", "_costs", "_vars", "_cons")

    def __init__(self, constraints: Iterable[Constraint] = ()):
        self._set(*_dense((c.kind == Constraint.EQ, c.expr.terms(), c.expr.constant)
                          for c in constraints))

    @classmethod
    def from_terms(cls, items: Iterable[tuple[bool, Iterable[tuple[str, int]], int]]) -> "System":
        """The system of ``(is_equality, terms, constant)`` triples, each
        ``sum(c * v for v, c in terms) + constant  (== | >=)  0`` (a name
        may repeat in ``terms``), built with no :class:`Constraint`."""
        return cls._of(*_dense(items))

    @classmethod
    def _of(cls, cols: tuple[int, ...], rows) -> "System":
        s = object.__new__(cls)
        s._set(cols, rows)
        return s

    def _set(self, cols: tuple[int, ...], rows: Iterable[tuple]) -> None:
        """Rows already in :func:`_norm` form: drop the trivially true,
        collapse on a false one, dedup (first occurrence wins) and drop
        the columns no row uses."""
        out: dict = {}
        false = False
        for con in rows:
            if not con:
                if con is None:
                    continue
                false = True
                break
            out[con] = None
        self._false = false
        self._key = self._costs = self._vars = self._cons = None
        self._cols, self._rows = ((), ()) if false or not out else (cols, tuple(out))
        live = [any(col) for col in zip(*[r for _, r in self._rows])][:-1]
        if not all(live):
            keep = [i for i, used in enumerate(live) if used]
            pick = itemgetter(*keep, -1)  # some column is live: no row is trivial
            self._cols = tuple(cols[i] for i in keep)
            self._rows = tuple([(e, pick(r)) for e, r in self._rows])

    # -- basic protocol ------------------------------------------------------

    def terms(self) -> Iterator[tuple[bool, list[tuple[str, int]], int]]:
        """``(is_equality, [(variable, coefficient), ...], constant)`` per
        constraint, in order: the inverse of :meth:`from_terms`."""
        names = [_NAMES[v] for v in self._cols]
        for e, r in self._rows:
            yield e, [(n, c) for n, c in zip(names, r) if c], r[-1]

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        """The constraints as :class:`Constraint` views (built on first use)."""
        cs = self._cons
        if cs is None:
            cs = self._cons = tuple(
                Constraint(LinExpr(dict(terms), k), Constraint.EQ if e else Constraint.GE)
                for e, terms, k in self.terms()
            )
        return cs

    def is_trivially_false(self) -> bool:
        return self._false

    def variables(self) -> frozenset[str]:
        """The set of variables occurring in the system (cached; Systems
        are immutable, so repeated calls return the identical object)."""
        v = self._vars
        if v is None:
            v = self._vars = frozenset(_NAMES[i] for i in self._cols)
        return v

    def canonical_key(self) -> tuple:
        """Order-insensitive canonical form, the query engine's memo key:
        the columns and the sorted tuple of (normalised, deduplicated)
        rows — as canonical as their set, and smaller to hold."""
        k = self._key
        if k is None:
            k = self._key = ("<infeasible>",) if self._false else (self._cols, tuple(sorted(self._rows)))
        return k

    def _cheapest(self, keep: frozenset[int] = frozenset()) -> int | None:
        """The id of the variable outside ``keep`` to eliminate next: the
        fewest lower×upper products (per-column counts, cached), ties
        broken by variable *name*, whatever order names were interned
        in.  ``None`` when none is left."""
        todo = [(j, v) for j, v in enumerate(self._cols) if v not in keep]
        if len(todo) < 2:
            return todo[0][1] if todo else None
        costs = self._costs
        if costs is None:
            costs = self._costs = []
            for col in zip(*[r for _, r in self._rows]):
                up, down = col.count(1), col.count(-1)
                if up + down + col.count(0) < len(col):  # a non-unit coefficient
                    up, down = sum(1 for c in col if c > 0), sum(1 for c in col if c < 0)
                costs.append(up * down)
        return min((costs[j], _NAMES[v], v) for j, v in todo)[2]

    def __eq__(self, other) -> bool:
        if not isinstance(other, System):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return iter(self.constraints)

    def __reduce__(self):  # interned ids are per process: pickle by name
        return System, (_FALSE_CONS if self._false else self.constraints,)

    def __repr__(self) -> str:
        if self._false:
            return "System(<infeasible>)"
        return "System([" + ", ".join(str(c) for c in self.constraints) + "])"

    def satisfied_by(self, env: Mapping[str, int]) -> bool:
        return not self._false and all(c.satisfied_by(env) for c in self.constraints)

    # -- construction ----------------------------------------------------------

    def and_(self, *constraints: Constraint) -> "System":
        return self if self._false else self.conjoin(System(constraints))

    def conjoin(self, other: "System") -> "System":
        if self._false or other._false:
            return _FALSE
        if not other._rows or not self._rows:
            return other if not self._rows else self
        cols = self._cols if self._cols == other._cols else tuple(sorted({*self._cols, *other._cols}))
        rows = []
        for sub, part in ((self._cols, self._rows), (other._cols, other._rows)):
            if sub == cols:
                rows += part
                continue
            at = {v: i for i, v in enumerate(sub)}
            pick = itemgetter(*[at.get(v, len(sub) + 1) for v in cols], len(sub))
            rows += [(e, pick(r + (0,))) for e, r in part]  # the appended 0 fills new columns
        s = object.__new__(System)
        s._false, s._key, s._costs, s._vars, s._cons = False, None, None, None, None
        s._cols, s._rows = cols, tuple(dict.fromkeys(rows))
        return s

    def _map(self, f) -> "System":
        return self if self._false else System(f(c) for c in self.constraints)

    def substitute(self, name: str, replacement: LinExpr) -> "System":
        return self._map(lambda c: c.substitute(name, replacement))

    def rename(self, mapping: Mapping[str, str]) -> "System":
        return self._map(lambda c: c.rename(mapping))

    def eval_partial(self, env: Mapping[str, int]) -> "System":
        """Substitute constants for some variables."""
        return self._map(lambda c: Constraint(c.expr.eval_partial(env), c.kind))

    # -- Fourier–Motzkin elimination ---------------------------------------------

    def eliminate(self, name: str, *, dark_shadow: bool = False) -> tuple["System", bool]:
        """Eliminate ``name``; returns ``(projected_system, exact)``.

        ``exact`` is True when the result is exactly the integer points of
        the projection (every lower/upper pairing had a unit coefficient
        on one side, or a unit-coefficient equality allowed an exact
        substitution).  With ``dark_shadow=True`` the Omega "dark shadow"
        is returned instead of the real one: it *under*-approximates the
        projection, so its feasibility implies the original's.
        """
        real, dark, exact = self.eliminate_shadows(name)
        return (dark if dark_shadow else real), exact

    def eliminate_shadows(self, name: str) -> tuple["System", "System", bool]:
        """Eliminate ``name``, producing the real- and dark-shadow results
        of one shared Fourier–Motzkin pass: ``(real, dark, exact)``.

        The shadows only differ in the tightening term of non-unit pairs,
        so when the step is exact ``real is dark``.  Memoized in the
        query engine under the system's canonical form.
        """
        return self._eliminate(_IDS[name] if name in _IDS else _intern(name))

    def _eliminate(self, v: int, budget: int | None = None) -> tuple["System", "System", bool]:
        if self._false:
            return self, self, True
        return _memo(lambda: ("elim", self.canonical_key(), v),
                     lambda: self._eliminate_impl(v, budget))

    def _eliminate_impl(self, v: int, budget: int | None) -> tuple["System", "System", bool]:
        counter("fm.eliminations")
        cols, rows = self._cols, self._rows
        if v not in cols:
            counter("fm.constraint_pairs", 0)
            return self, self, True
        j = cols.index(v)
        out_cols = cols[:j] + cols[j + 1:]
        # a row without column j (just the constant when nothing else is left)
        strip = itemgetter(*range(j), *range(j + 1, len(cols) + 1)) if out_cols else itemgetter(slice(-1, None))

        # 1. exact Gaussian substitution via a unit-coefficient equality
        for i, (e, p) in enumerate(rows):
            a = p[j]
            if e and (a == 1 or a == -1):
                # a*x + rest == 0  =>  x = -a*rest: row - (c*a)*pivot drops x
                pivot = strip(p)
                subbed = []
                for e2, r in rows[:i] + rows[i + 1:]:
                    m = r[j] * a
                    s = strip(r)
                    subbed.append(_norm(e2, tuple([x - m * y for x, y in zip(s, pivot)])) if m else (e2, s))
                out = System._of(out_cols, subbed)
                return out, out, True

        lowers: list[tuple[int, tuple]] = []  # (a, rest): a*x + rest >= 0, a > 0
        uppers: list[tuple[int, tuple]] = []  # (b, rest): -b*x + rest >= 0, b > 0
        free: list[tuple[bool, tuple]] = []
        equalities: list[tuple[int, tuple]] = []
        for e, r in rows:
            a = r[j]
            rest = strip(r)
            if a == 0:
                free.append((e, rest))
            elif e:
                equalities.append((a, rest))
            elif a > 0:
                lowers.append((a, rest))
            else:
                uppers.append((-a, rest))
        # equalities with non-unit coefficients: treat as a pair of
        # inequalities (loses the divisibility constraint => inexact)
        exact = not equalities
        for a, rest in equalities:
            neg = tuple([-c for c in rest])
            lowers.append((abs(a), rest if a > 0 else neg))
            uppers.append((abs(a), neg if a > 0 else rest))

        n_pairs = len(lowers) * len(uppers)
        if budget is not None and len(free) + n_pairs > budget:
            raise _OverBudget(len(free) + n_pairs)
        counter("fm.constraint_pairs", n_pairs)
        real_out = list(free)
        dark_out = list(free)
        for a, r1 in lowers:
            for b, r2 in uppers:
                # a*x >= -r1  and  b*x <= r2  =>  b*(-r1) <= a*b*x <= a*r2
                combined = tuple([b * x + a * y for x, y in zip(r1, r2)])
                real_out.append(_norm(False, combined))
                if a > 1 and b > 1:
                    exact = False
                    combined = combined[:-1] + (combined[-1] - (a - 1) * (b - 1),)
                    dark_out.append(_norm(False, combined))
                else:
                    dark_out.append(real_out[-1])
        real = System._of(out_cols, real_out)
        if exact:
            return real, real, True
        return real, System._of(out_cols, dark_out), False

    def project_onto(self, keep: Sequence[str], *, dark_shadow: bool = False) -> tuple["System", bool]:
        """Eliminate every variable not in ``keep``; returns (system, exact)."""
        if self._false:
            return self, True
        kept = frozenset(_IDS[n] for n in keep if n in _IDS).intersection(self._cols)
        return _memo(lambda: ("proj", self.canonical_key(), tuple(sorted(kept)), dark_shadow),
                     lambda: self._project_onto_impl(kept, dark_shadow), timed=True)

    def _project_onto_impl(self, kept: frozenset[int], dark_shadow: bool) -> tuple["System", bool]:
        sys_, exact = self, True
        while True:
            v = sys_._cheapest(kept)
            if v is None:
                return sys_, exact
            real, dark, e = sys_._eliminate(v)
            sys_ = dark if dark_shadow else real
            exact = exact and e

    # -- feasibility ------------------------------------------------------------

    def feasible(self) -> Feasibility:
        """Integer feasibility of the system.

        Real-shadow FM elimination of every variable decides INFEASIBLE
        (sound) and, when every step was exact, FEASIBLE; otherwise a
        feasible dark shadow proves FEASIBLE, and the answer is
        :data:`Feasibility.UNKNOWN` (callers needing certainty fall back
        to :meth:`find_point`).  Both shadows come from one fused sweep
        (:meth:`eliminate_shadows`): they share the exact prefix and
        diverge from the first inexact step.  The verdict is memoized.
        A step over :data:`FM_ROW_BUDGET` constraints ends the query as
        ``UNKNOWN``, counted as ``fm.budget_exhausted`` and not memoized.
        """
        counter("fm.feasibility_queries")
        if self._false:
            return Feasibility.INFEASIBLE
        try:
            return _memo(lambda: ("feas", self.canonical_key()), self._feasible_impl, timed=True)
        except _OverBudget as over:
            counter("fm.budget_exhausted")
            event("fm", "info", "elimination over the FM work budget; feasibility unknown",
                  rows=over.args[0], budget=FM_ROW_BUDGET,
                  variables=len(self._cols), constraints=len(self._rows))
            return Feasibility.UNKNOWN

    def _feasible_impl(self) -> Feasibility:
        real: System = self
        dark: System | None = self  # identical object while every step is exact
        exact = True
        while not real._false:
            v = real._cheapest()
            if v is None:
                break
            if dark is real:
                real, dark, e = real._eliminate(v, FM_ROW_BUDGET)
            else:
                real, _, e = real._eliminate(v, FM_ROW_BUDGET)
                if dark is not None:
                    _, dark, _ = dark._eliminate(v, FM_ROW_BUDGET)
                    if dark._false:
                        dark = None  # dark infeasibility proves nothing
            exact = exact and e
        if real._false:
            return Feasibility.INFEASIBLE
        if exact:
            return Feasibility.FEASIBLE
        # finish projecting any variables only the dark shadow still has
        while dark is not None and not dark._false and dark._cols:
            _, dark, _ = dark._eliminate(dark._cheapest(), FM_ROW_BUDGET)
        if dark is not None and not dark._false:
            return Feasibility.FEASIBLE
        return Feasibility.UNKNOWN

    # -- integer point search -----------------------------------------------------

    def var_range(self, name: str) -> tuple[int | None, int | None]:
        """Rational bounds on ``name`` over the projection (lo, hi);
        ``None`` means unbounded on that side."""
        proj, _ = self.project_onto((name,))
        if proj._false:
            raise PolyhedronError("system is infeasible; no variable range")
        lo = hi = None
        for e, (a, k) in proj._rows:  # one column left: a*x + k (== | >=) 0
            if e and k % a:
                raise PolyhedronError("equality with no integer solution")
            if e or a > 0:  # x >= ceil(-k/a)
                lo = -(k // a) if lo is None else max(lo, -(k // a))
            if e or a < 0:  # x <= floor(k/-a)
                hi = k // -a if hi is None else min(hi, k // -a)
        return lo, hi

    def find_point(self, *, clip: int = 64) -> dict[str, int] | None:
        """Search for an integer point; returns an assignment or None.

        Unbounded directions are clipped to ``[-clip, clip]``, so a None
        result means "no point within the clip box", which is conclusive
        only for bounded systems.  Intended for tests and cross-checks on
        small systems, not as the primary decision procedure.
        """
        if self._false:
            return None
        return self._search({}, clip)

    def _search(self, env: dict[str, int], clip: int) -> dict[str, int] | None:
        sys_ = self.eval_partial(env) if env else self
        if sys_.is_trivially_false():
            return None
        remaining = sorted(sys_.variables())
        if not remaining:
            return dict(env)
        name = remaining[0]
        try:
            lo, hi = sys_.var_range(name)
        except PolyhedronError:
            return None
        lo = -clip if lo is None else max(lo, -clip)
        hi = clip if hi is None else min(hi, clip)
        for v in range(lo, hi + 1):
            result = self._search({**env, name: v}, clip)
            if result is not None:
                return result
        return None

    def enumerate_points(self, order: Sequence[str] | None = None, *, clip: int = 512):
        """Yield all integer points (as dicts) in lexicographic order of
        ``order`` (default: sorted variable names).  The system must be
        bounded in every variable or a PolyhedronError is raised."""
        if self._false:
            return
        order = list(order) if order is not None else sorted(self.variables())
        missing = self.variables() - set(order)
        if missing:
            raise PolyhedronError(f"enumeration order is missing variables {sorted(missing)}")
        yield from self._enumerate({}, order, clip)

    def _enumerate(self, env: dict[str, int], order: Sequence[str], clip: int):
        sys_ = self.eval_partial(env) if env else self
        if sys_.is_trivially_false():
            return
        pending = [v for v in order if v not in env]
        if not pending:
            if sys_.satisfied_by({}) or not sys_.constraints:
                yield dict(env)
            return
        name = pending[0]
        if name not in sys_.variables():
            # unconstrained in the remaining system: single canonical value 0
            yield from self._enumerate({**env, name: 0}, order, clip)
            return
        try:
            lo, hi = sys_.var_range(name)
        except PolyhedronError:
            # the remaining system may be infeasible without being
            # syntactically false; an empty projection means no points
            proj, _ = sys_.project_onto(())
            if proj.is_trivially_false():
                return
            raise
        if lo is None or hi is None:
            raise PolyhedronError(f"variable {name} is unbounded; cannot enumerate")
        if hi - lo > 2 * clip:
            raise PolyhedronError(f"range of {name} exceeds clip ({lo}..{hi})")
        for v in range(lo, hi + 1):
            yield from self._enumerate({**env, name: v}, order, clip)


_FALSE_CONS = (Constraint(LinExpr({}, -1), Constraint.GE),)
_FALSE = System(_FALSE_CONS)
