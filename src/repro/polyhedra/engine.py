"""Memoizing polyhedral query engine.

Fourier–Motzkin elimination, projection and feasibility are pure
functions of an (immutable) :class:`~repro.polyhedra.system.System`, so
their results can be shared across the whole pipeline: dependence
analysis re-tests closely related systems for every precedence case,
legality/completion re-project the same iteration domains, and the
loop-order search replays dependence analysis wholesale.  This module
provides the process-wide bounded LRU those layers share.

The cache is keyed on the *canonical form* of a system
(:meth:`System.canonical_key` — sorted constraint keys, order
insensitive) plus the operation and its arguments, so structurally
equal systems hit regardless of construction order.  Values are
immutable ``System``/:class:`Feasibility` results and are shared
between callers.

The engine also owns the **dependence memo**: a second, small bounded
table holding the result of a whole §3 dependence analysis per distinct
program (:func:`repro.dependence.analyze_dependences` builds the key and
stores an immutable tuple of dependence vectors).  One compile asks for
the dependences of the same program from half a dozen layers; only the
first asks the FM cache anything.  The table is separate so that an
analysis never competes with FM results for LRU slots.

Observability: every FM lookup bumps ``fm.cache_hits`` or
``fm.cache_misses`` and every LRU ejection bumps ``fm.cache_evictions``
through :mod:`repro.obs` (no-ops when no session is installed); the
same totals are always available via :func:`cache_stats`.  Dependence
memo lookups are counted by their caller as ``dependence.memo_hits`` /
``dependence.memo_misses`` and never touch the ``fm.*`` totals, so the
FM hit rate keeps meaning "FM lookups".

Control knobs (each governs the FM cache *and* the dependence memo —
there is no separate switch for the memo)::

    from repro.polyhedra import engine
    engine.configure(maxsize=16384)     # resize the FM cache (clears both tables)
    engine.configure(enabled=False)     # turn memoization off (both tables)
    engine.cache_clear()                # drop entries of both tables, keep config
    with engine.cache_disabled():       # oracle mode for tests: every
        ...                             # analysis and every FM query is real

Environment variables ``REPRO_FM_CACHE`` (``0``/``false`` disables both
tables) and ``REPRO_FM_CACHE_SIZE`` (FM entry count) set the initial
configuration; the dependence memo's bound is a constant.  The engine is
thread-safe (the loop-order search queries it from a thread pool; two
threads that miss on the same program both analyse it, and the second
store wins) and per-process (worker processes of the dependence fan-out
each warm their own).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass

from repro.obs import counter

__all__ = [
    "MISS",
    "QueryEngine",
    "EngineStats",
    "active",
    "default_engine",
    "configure",
    "cache_clear",
    "cache_stats",
    "cache_disabled",
]

#: Sentinel returned by :meth:`QueryEngine.get` on a cache miss (cached
#: values themselves are never ``MISS``).
MISS = object()

_DEFAULT_MAXSIZE = 8192

#: Bound of the dependence memo (entries = distinct analysed programs).
#: A tune search analyses a few hundred candidate programs, each asked
#: for again within the same candidate; an entry is one small tuple.
_ANALYSIS_MEMO_SIZE = 256


@dataclass(frozen=True)
class EngineStats:
    """Point-in-time cache statistics (process-local totals)."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int
    enabled: bool

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class QueryEngine:
    """A bounded, thread-safe LRU for polyhedral query results, plus the
    small dependence memo (whole-analysis results per program)."""

    __slots__ = (
        "maxsize", "enabled", "_data", "_analyses", "_lock", "_hits", "_misses", "_evictions",
    )

    def __init__(self, maxsize: int = _DEFAULT_MAXSIZE, enabled: bool = True):
        self.maxsize = int(maxsize)
        self.enabled = enabled
        self._data: OrderedDict = OrderedDict()
        self._analyses: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- lookup -----------------------------------------------------------

    def get(self, key):
        """The cached value for ``key``, or :data:`MISS`."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self._misses += 1
                counter("fm.cache_misses")
                return MISS
            self._data.move_to_end(key)
            self._hits += 1
        counter("fm.cache_hits")
        return value

    def put(self, key, value) -> None:
        """Insert ``key -> value``, evicting the LRU entry when full."""
        evicted = 0
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self._evictions += 1
                evicted += 1
        if evicted:
            counter("fm.cache_evictions", evicted)

    # -- dependence memo --------------------------------------------------

    def get_analysis(self, key):
        """The memoized whole-program analysis for ``key``, or
        :data:`MISS`.  Leaves the FM hit/miss statistics untouched."""
        with self._lock:
            try:
                value = self._analyses[key]
            except KeyError:
                return MISS
            self._analyses.move_to_end(key)
        return value

    def put_analysis(self, key, value) -> None:
        """Insert an analysis result (an immutable value shared between
        callers), dropping the least recently used one when full."""
        with self._lock:
            self._analyses[key] = value
            self._analyses.move_to_end(key)
            while len(self._analyses) > _ANALYSIS_MEMO_SIZE:
                self._analyses.popitem(last=False)

    # -- management -------------------------------------------------------

    def clear(self) -> None:
        """Drop all entries of both tables (statistics are kept)."""
        with self._lock:
            self._data.clear()
            self._analyses.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self._hits = self._misses = self._evictions = 0

    def stats(self) -> EngineStats:
        with self._lock:
            return EngineStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._data),
                maxsize=self.maxsize,
                enabled=self.enabled,
            )

    def __len__(self) -> int:
        return len(self._data)


def _env_default() -> QueryEngine:
    raw = os.environ.get("REPRO_FM_CACHE", "1").strip().lower()
    enabled = raw not in ("0", "false", "no", "off")
    try:
        maxsize = int(os.environ.get("REPRO_FM_CACHE_SIZE", _DEFAULT_MAXSIZE))
    except ValueError:
        maxsize = _DEFAULT_MAXSIZE
    return QueryEngine(maxsize=maxsize, enabled=enabled)


_default = _env_default()


def default_engine() -> QueryEngine:
    """The process-wide engine instance (always exists, may be disabled)."""
    return _default


def active() -> QueryEngine | None:
    """The engine queries should use, or ``None`` when memoization is off."""
    eng = _default
    return eng if eng.enabled else None


def configure(*, enabled: bool | None = None, maxsize: int | None = None) -> QueryEngine:
    """Reconfigure the default engine; resizing clears both tables."""
    eng = _default
    if enabled is not None:
        eng.enabled = enabled
    if maxsize is not None:
        eng.maxsize = int(maxsize)
        eng.clear()
    return eng


def cache_clear() -> None:
    """Drop every cached query result and every memoized dependence
    analysis in the default engine."""
    _default.clear()


def cache_stats() -> EngineStats:
    """Statistics of the default engine."""
    return _default.stats()


@contextmanager
def cache_disabled():
    """Temporarily disable memoization (the uncached oracle for tests)."""
    eng = _default
    prev = eng.enabled
    eng.enabled = False
    try:
        yield
    finally:
        eng.enabled = prev
