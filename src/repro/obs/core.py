"""Core of the observability substrate (system S16).

Four metric primitives, all near-zero-cost when no session is installed:

* :func:`span` — a hierarchical trace region timed with
  ``time.perf_counter_ns()``; nesting is tracked through a
  :mod:`contextvars` variable so spans compose correctly across
  generators and recursive calls.
* :func:`counter` — a monotonically accumulating named integer
  (dependence pairs tested, Fourier–Motzkin eliminations, AST nodes
  emitted, ...).
* :func:`gauge` — a last-value-wins named number (matrix dimension,
  trace length, ...).
* :func:`histogram` — a latency distribution over fixed log2 buckets
  (FM query latency, per-candidate measurement spread, codegen time),
  summarized as p50/p90/p99/max and mergeable bucket-wise across
  ``--jobs`` workers exactly like counters.

A fifth primitive, the typed decision :func:`~repro.obs.events.event`,
lives in :mod:`repro.obs.events` and records *why* the pipeline accepted
or rejected something rather than how long it took.

Events flow into the installed :class:`ObsSession`: counters, gauges and
histograms aggregate in the session itself, finished spans and decision
events are forwarded to every attached sink (see
:mod:`repro.obs.sinks`).  When no session is installed — the default —
every primitive returns immediately after a single global load and
``None`` check, so instrumented library code pays essentially nothing.

Sessions are process-global and single-threaded by design (the pipeline
itself is single-threaded); nesting :func:`install` raises
:class:`~repro.util.errors.ObsError` rather than silently stacking.
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from typing import Any, Iterator, Mapping

from repro.util.errors import ObsError

__all__ = [
    "Span",
    "Histogram",
    "ObsSession",
    "current_session",
    "install",
    "uninstall",
    "session",
    "span",
    "counter",
    "gauge",
    "histogram",
    "snapshot",
    "snapshot_histograms",
]


class Span:
    """One finished (or in-flight) trace region.

    Spans form a tree through ``parent``/``children``; ``id`` numbers
    are assigned in start order within a session, so sorting by id
    recovers the chronological start order.
    """

    __slots__ = ("id", "name", "attrs", "start_ns", "end_ns", "parent", "children")

    def __init__(self, id: int, name: str, attrs: dict[str, Any]):
        self.id = id
        self.name = name
        self.attrs = attrs
        self.start_ns = 0
        self.end_ns: int | None = None
        self.parent: Span | None = None
        self.children: list[Span] = []

    @property
    def duration_ns(self) -> int:
        end = self.end_ns if self.end_ns is not None else time.perf_counter_ns()
        return end - self.start_ns

    @property
    def parent_id(self) -> int | None:
        return self.parent.id if self.parent is not None else None

    def walk(self, depth: int = 0) -> Iterator[tuple["Span", int]]:
        """Yield ``(span, depth)`` pairs, pre-order."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def find(self, name: str) -> list["Span"]:
        """All spans named ``name`` in this subtree, pre-order."""
        return [s for s, _ in self.walk() if s.name == name]

    def to_dict(self) -> dict[str, Any]:
        """A flat JSON-friendly record (children referenced by id)."""
        return {
            "type": "span",
            "id": self.id,
            "parent": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "dur_ns": self.duration_ns,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:
        return f"Span({self.name!r}, id={self.id}, dur={self.duration_ns}ns)"


class Histogram:
    """A latency distribution over fixed log2 buckets.

    Bucket ``i`` holds samples whose integer value has bit length ``i``,
    i.e. bucket 0 is exactly 0, bucket ``i >= 1`` covers
    ``[2**(i-1), 2**i - 1]``.  The bucket layout is the same for every
    histogram in every process, so worker histograms merge by bucket-wise
    summation (see :meth:`merge`) without any rebinning — the property
    ``--jobs`` fan-out relies on for serial == parallel metrics.

    Percentiles are bucket upper bounds clamped to the exact tracked
    ``max``: cheap, deterministic, and within 2x of the true value by
    construction of the log2 buckets.
    """

    __slots__ = ("buckets", "count", "total", "max")

    def __init__(self):
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.max = 0

    def add(self, value) -> None:
        v = int(value)
        if v < 0:
            v = 0
        idx = v.bit_length()
        self.buckets[idx] = self.buckets.get(idx, 0) + 1
        self.count += 1
        self.total += v
        if v > self.max:
            self.max = v

    def percentile(self, q: float) -> int:
        """The smallest bucket upper bound covering fraction ``q`` of the
        samples (clamped to the exact maximum); 0 for an empty histogram."""
        if self.count == 0:
            return 0
        rank = max(1, -(-int(q * self.count * 1000) // 1000))  # ceil without float drift
        cum = 0
        for idx in sorted(self.buckets):
            cum += self.buckets[idx]
            if cum >= rank:
                upper = 0 if idx == 0 else (1 << idx) - 1
                return min(upper, self.max)
        return self.max

    @property
    def p50(self) -> int:
        return self.percentile(0.50)

    @property
    def p90(self) -> int:
        return self.percentile(0.90)

    @property
    def p99(self) -> int:
        return self.percentile(0.99)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram | Mapping[str, Any]") -> None:
        """Bucket-wise sum of another histogram (or its ``to_dict`` form)
        into this one — the worker-to-parent merge operation."""
        if isinstance(other, Histogram):
            buckets, count, total, mx = other.buckets, other.count, other.total, other.max
        else:
            buckets = {int(k): int(v) for k, v in other.get("buckets", {}).items()}
            count = int(other.get("count", 0))
            total = int(other.get("total", 0))
            mx = int(other.get("max", 0))
        for idx, n in buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        self.count += count
        self.total += total
        if mx > self.max:
            self.max = mx

    def copy(self) -> "Histogram":
        out = Histogram()
        out.merge(self)
        return out

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "max": self.max,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Histogram":
        out = cls()
        out.merge(payload)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.buckets == other.buckets
            and self.count == other.count
            and self.total == other.total
            and self.max == other.max
        )

    def __repr__(self) -> str:
        return (
            f"Histogram(count={self.count}, p50={self.p50}, "
            f"p99={self.p99}, max={self.max})"
        )


class ObsSession:
    """The active collection context: counters, gauges, histograms and
    sinks.  Decision events stream to the sinks; the session keeps none
    (:func:`repro.obs.collect_events` gathers one call's events)."""

    __slots__ = ("sinks", "counters", "gauges", "histograms", "_next_id")

    def __init__(self, sinks: tuple = ()):
        self.sinks = tuple(sinks)
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self._next_id = 0

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def emit_span(self, sp: Span) -> None:
        for sink in self.sinks:
            sink.span(sp)

    def emit_event(self, ev) -> None:
        for sink in self.sinks:
            sink.event(ev)

    def flush(self) -> None:
        """Push aggregated metrics to every sink and close them."""
        for sink in self.sinks:
            sink.metrics(dict(self.counters), dict(self.gauges))
            sink.histograms(dict(self.histograms))
        for sink in self.sinks:
            sink.close()


_session: ObsSession | None = None
_current: ContextVar[Span | None] = ContextVar("repro_obs_current_span", default=None)


def current_session() -> ObsSession | None:
    """The installed session, or None when observability is off."""
    return _session


def install(*sinks) -> ObsSession:
    """Install a fresh session routing spans to ``sinks``.

    Counters and gauges aggregate in the returned session even with no
    sinks attached.  Raises :class:`ObsError` if a session is already
    installed (sessions do not nest).
    """
    global _session
    if _session is not None:
        raise ObsError("an observability session is already installed")
    _session = ObsSession(sinks)
    return _session


def uninstall() -> ObsSession:
    """Flush sinks, close them, and remove the session."""
    global _session
    if _session is None:
        raise ObsError("no observability session is installed")
    out = _session
    _session = None
    out.flush()
    return out


class session:
    """Context manager form: ``with obs.session(MemorySink()) as s: ...``."""

    def __init__(self, *sinks):
        self._sinks = sinks

    def __enter__(self) -> ObsSession:
        return install(*self._sinks)

    def __exit__(self, exc_type, exc, tb) -> bool:
        uninstall()
        return False


class _NoopSpanCtx:
    """Shared, stateless stand-in returned when no session is installed."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP = _NoopSpanCtx()


class _SpanCtx:
    __slots__ = ("_session", "_span", "_token")

    def __init__(self, sess: ObsSession, name: str, attrs: dict[str, Any]):
        self._session = sess
        self._span = Span(sess.new_id(), name, attrs)

    def __enter__(self) -> Span:
        sp = self._span
        parent = _current.get()
        if parent is not None:
            sp.parent = parent
            parent.children.append(sp)
        self._token = _current.set(sp)
        sp.start_ns = time.perf_counter_ns()
        return sp

    def __exit__(self, exc_type, exc, tb) -> bool:
        sp = self._span
        sp.end_ns = time.perf_counter_ns()
        _current.reset(self._token)
        if exc_type is not None:
            sp.attrs["error"] = exc_type.__name__
        self._session.emit_span(sp)
        return False


def span(name: str, **attrs):
    """Open a trace span: ``with span("dependence.analyze", program=p.name):``.

    Returns a context manager; with no session installed it is a shared
    no-op object and nothing is recorded.
    """
    sess = _session
    if sess is None:
        return _NOOP
    return _SpanCtx(sess, name, attrs)


def counter(name: str, n: int = 1) -> None:
    """Add ``n`` to the named counter (no-op without a session)."""
    sess = _session
    if sess is not None:
        c = sess.counters
        c[name] = c.get(name, 0) + n


def gauge(name: str, value) -> None:
    """Record a last-value-wins measurement (no-op without a session)."""
    sess = _session
    if sess is not None:
        sess.gauges[name] = value


def histogram(name: str, value) -> None:
    """Add one sample (by convention: nanoseconds) to the named
    histogram (no-op without a session)."""
    sess = _session
    if sess is not None:
        h = sess.histograms.get(name)
        if h is None:
            h = sess.histograms[name] = Histogram()
        h.add(value)


def snapshot() -> tuple[Mapping[str, int], Mapping[str, float]]:
    """Copies of the current counters and gauges (empty when off)."""
    sess = _session
    if sess is None:
        return {}, {}
    return dict(sess.counters), dict(sess.gauges)


def snapshot_histograms() -> dict[str, Histogram]:
    """Independent copies of the current histograms (empty when off)."""
    sess = _session
    if sess is None:
        return {}
    return {name: h.copy() for name, h in sess.histograms.items()}
