"""Observability substrate (system S16): spans, counters, histograms,
decision events, sinks, reports.

Quickstart::

    from repro import obs

    mem = obs.MemorySink()
    with obs.session(mem):
        deps = analyze_dependences(program)      # instrumented entry point
    print(mem.render())                          # span tree + metrics
    mem.events_for("legality", "reject")         # decision provenance
    with obs.collect_events() as events:         # one call's events,
        check_legality(layout, matrix, deps)     # session or not

Naming conventions (see docs/OBSERVABILITY.md):

* spans: ``<layer>.<operation>`` — ``dependence.analyze``,
  ``legality.check``, ``completion.complete``, ``codegen.generate``,
  ``interp.execute``, ``cli.report`` ...
* counters: ``<layer>.<plural-noun>`` — ``dependence.pairs_tested``,
  ``fm.eliminations``, ``codegen.ast_nodes``, ``cache.misses`` ...
* gauges: ``<layer>.<noun>`` — last value wins.
* histograms: ``<layer>.<noun>_ns`` — log2-bucketed nanosecond
  distributions, mergeable across ``--jobs`` workers.
* events: ``event(kind, verdict, reason, **attrs)`` — one per decision,
  ``kind`` is the pipeline phase, ``verdict`` in accept/reject/measure/
  info; streamed to sinks, gathered per call by ``collect_events()``
  and rendered by ``repro explain``.

The default state (no session installed) is a no-op with near-zero
overhead; instrumented library code never needs to guard its calls.
"""

from repro.obs.core import (
    Histogram, ObsSession, Span, counter, current_session, gauge, histogram,
    install, session, snapshot, snapshot_histograms, span, uninstall,
)
from repro.obs.decorators import timed
from repro.obs.events import Event, collect_events, event, events_for
from repro.obs.report import (
    format_ns, render_distribution_plan, render_doall_marks, render_events,
    render_full_report, render_histograms, render_metrics, render_report,
    render_span_tree,
)
from repro.obs.sinks import JsonlSink, MemorySink, NullSink, Sink

__all__ = [
    # core
    "Span", "Histogram", "ObsSession", "current_session", "install",
    "uninstall", "session", "span", "counter", "gauge", "histogram",
    "snapshot", "snapshot_histograms",
    # events
    "Event", "event", "events_for", "collect_events",
    # decorator
    "timed",
    # sinks
    "Sink", "NullSink", "MemorySink", "JsonlSink",
    # rendering
    "render_span_tree", "render_metrics", "render_histograms",
    "render_events", "render_report", "render_doall_marks",
    "render_distribution_plan", "render_full_report", "format_ns",
]
