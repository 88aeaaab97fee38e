"""Typed decision events: the *why* behind every accept/reject.

Spans and counters (PR 1) record that decisions happened; an
:class:`Event` records the evidence behind one decision — which
dependence vector killed which candidate in the Theorem-2 projection
test, why the vectorizer declined a loop, how a tune candidate ranked.
``repro explain`` renders the stream as a per-phase narrative
(docs/OBSERVABILITY.md has the full taxonomy).

Usage, at a decision point::

    from repro.obs import event

    event("legality", "reject", "projection may be lexicographically negative",
          dep=str(d), projection=str(projected))

Events are streamed to every sink of the installed session as they
occur, and appended to the active :func:`collect_events` list, if any —
the one way to get the events of *one* call back, which is how
``repro explain`` renders the run it explains.  Collectors are
per-context (a :class:`~contextvars.ContextVar`), so two threads of one
daemon never see each other's events, and a collector records with or
without a session.  With neither installed, :func:`event` is a no-op
(one global load plus one ``ContextVar.get()``), so decision sites never
guard their calls.  ``seq`` numbers give the exact emission order.

Event kinds are the pipeline phase that made the decision (``legality``,
``complete``, ``vectorize``, ``tune``, ``fuzz``); verdicts are drawn
from a small closed set so renderers and tests can switch on them:

* ``accept`` — the candidate/loop/case passed this decision point;
* ``reject`` — it was ruled out, with ``reason`` naming the evidence;
* ``measure`` — a measurement result (seconds, score) was recorded;
* ``info`` — neutral provenance (a ranking, a summary, a fallback).
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.obs import core

__all__ = ["Event", "event", "events_for", "collect_events", "VERDICTS"]

#: The closed verdict vocabulary (renderers and tests switch on these).
VERDICTS = ("accept", "reject", "measure", "info")


@dataclass(frozen=True)
class Event:
    """One recorded decision: what was decided, and on what evidence."""

    seq: int
    kind: str            # pipeline phase: legality | complete | vectorize | tune | fuzz
    verdict: str         # accept | reject | measure | info
    reason: str          # the evidence, human-readable
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """A flat JSON-friendly record (one JSONL line in traces)."""
        return {
            "type": "event",
            "seq": self.seq,
            "kind": self.kind,
            "verdict": self.verdict,
            "reason": self.reason,
            "attrs": self.attrs,
        }

    def describe(self) -> str:
        """One narrative line: ``verdict  reason  [k=v ...]``."""
        parts = [f"{self.verdict:<8}", self.reason]
        if self.attrs:
            parts.append("[" + " ".join(f"{k}={v}" for k, v in self.attrs.items()) + "]")
        return "  ".join(p for p in parts if p)

    def __str__(self) -> str:
        return f"{self.kind}: {self.describe()}"


#: The list the current context's events are appended to, if any.
_collector: ContextVar[list | None] = ContextVar("repro_obs_events", default=None)
#: ``seq`` source for events recorded with no session installed.
_seq = itertools.count(1)


@contextmanager
def collect_events() -> Iterator[list[Event]]:
    """Collect the decision events emitted in this context, in order::

        with obs.collect_events() as events:
            api.check_op(program, spec)

    The innermost collector gets the events; sinks still receive them."""
    events: list[Event] = []
    token = _collector.set(events)
    try:
        yield events
    finally:
        _collector.reset(token)


def event(kind: str, verdict: str, reason: str = "", /, **attrs) -> Event | None:
    """Record one decision event (no-op returning ``None`` with neither a
    session nor a collector).  ``attrs`` carry the structured evidence —
    dependence vectors, candidate descriptions, scores — as JSON-friendly
    values; the positional-only parameters keep ``kind``/``verdict``/
    ``reason`` usable as attr names."""
    sess = core._session
    collected = _collector.get()
    if sess is None and collected is None:
        return None
    ev = Event(
        sess.new_id() if sess is not None else next(_seq), kind, verdict, reason, attrs
    )
    if collected is not None:
        collected.append(ev)
    if sess is not None:
        sess.emit_event(ev)
    return ev


def events_for(
    events: Iterable[Event],
    kind: str | None = None,
    verdict: str | None = None,
) -> list[Event]:
    """Filter an event stream by kind and/or verdict, preserving order."""
    return [
        ev
        for ev in events
        if (kind is None or ev.kind == kind)
        and (verdict is None or ev.verdict == verdict)
    ]
