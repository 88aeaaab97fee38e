"""Spans recorded by the benchmark itself, around its calls into each
layer's public functions (spans inside the program are a later issue).

A span is ``{id, parent, workload, item, name, round, start_ns,
end_ns}`` (``round`` is null during set-up) plus the Fourier–Motzkin
cache lookups counted between its boundaries (``fm_hits`` /
``fm_misses``, read from the already-public
``polyhedra.engine.cache_stats()``).  Spans stay in memory and are
written as JSONL when the run ends.  A layer's *self time* is its
span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager, nullcontext

from ledger.metrics import median, stat_row


class NullTracer:
    """The untraced run: same call sites, nothing recorded."""

    _noop = nullcontext()

    def span(self, name: str, item: str = ""):
        return self._noop


class Tracer:
    """In-memory span recorder; nesting is tracked per thread."""

    def __init__(self, workload: str, fm_stats=None):
        self.workload = workload
        self.spans: list[dict] = []
        self.round: int | None = None  # set by the harness per traced round
        self._fm_stats = fm_stats
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, item: str = ""):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        rec = {
            "id": 0, "parent": stack[-1] if stack else None,
            "workload": self.workload, "item": item, "name": name,
            "round": self.round,
        }
        with self._lock:
            rec["id"] = len(self.spans) + 1
            self.spans.append(rec)
        stack.append(rec["id"])
        before = self._fm_stats() if self._fm_stats else None
        rec["start_ns"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            if before is not None:
                after = self._fm_stats()
                rec["fm_hits"] = after.hits - before.hits
                rec["fm_misses"] = after.misses - before.misses
            stack.pop()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> self time in ns: duration minus the union of the
    intervals its direct children cover (children may overlap when they
    ran on different threads)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    out = {}
    for s in spans:
        covered, reach = 0, s["start_ns"]
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, reach), min(hi, s["end_ns"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = s["end_ns"] - s["start_ns"] - covered
    return out


def layer_totals(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total and self time in ms, FM lookups."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(
            s["name"], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0,
                        "fm_hits": 0, "fm_misses": 0})
        row["calls"] += 1
        row["total_ms"] += (s["end_ns"] - s["start_ns"]) / 1e6
        row["self_ms"] += selfs[s["id"]] / 1e6
        row["fm_hits"] += s.get("fm_hits", 0)
        row["fm_misses"] += s.get("fm_misses", 0)
    return out


def span_rows(spans: list[dict]) -> list[dict]:
    """One row per (span name, item): calls, median and quartiles of the
    span durations in ms — the per-row detail of the results file."""
    cells: dict[tuple[str, str], list[float]] = {}
    for s in spans:
        cells.setdefault((s["name"], s["item"]), []).append((s["end_ns"] - s["start_ns"]) / 1e6)
    return [{"name": name, "item": item, **stat_row(values)}
            for (name, item), values in sorted(cells.items())]


def per_round_ms(spans: list[dict], name: str) -> float:
    """What one round spends in spans called ``name``: per item the
    median over the traced rounds of the item's time there, summed over
    items.  Set-up spans (``round`` null) are left out."""
    cells: dict[tuple[str, int], float] = {}
    for s in spans:
        if s["name"] == name and s["round"] is not None:
            key = (s["item"], s["round"])
            cells[key] = cells.get(key, 0.0) + (s["end_ns"] - s["start_ns"]) / 1e6
    by_item: dict[str, list[float]] = {}
    for (item, _), ms in cells.items():
        by_item.setdefault(item, []).append(ms)
    return sum(median(v) for v in by_item.values())


def setup_ms(spans: list[dict], name: str) -> float:
    """Total time set-up spent in spans called ``name``."""
    return sum((s["end_ns"] - s["start_ns"]) / 1e6
               for s in spans if s["name"] == name and s["round"] is None)
