"""Fan-out helpers for the parallel pipeline paths (``--jobs N``).

:func:`map_in_processes` is CPU-bound fan-out across *processes* with a
picklable task encoding.  :func:`repro.dependence.analyze.analyze_dependences`
uses it to split its statement-pair × depth case matrix and
:func:`repro.fuzz.runner.fuzz_run` to spread its cases.  Each worker
process captures its observability counters and returns them alongside
the results so the parent can merge the deltas (spans stay parent-side;
counters stay exact).

It falls back to plain serial iteration when ``jobs`` resolves to 1,
when the task list is too small to amortize pool startup, or when a
pool cannot be created at all (restricted environments); results are
always returned in task order, so parallel output is bit-identical to
serial output.  There is no thread fan-out: the per-candidate work is
pure Python under the GIL and measured no faster on two threads
(docs/PERFORMANCE.md).
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

from repro.obs import (
    counter, current_session, gauge, install, snapshot, snapshot_histograms,
    uninstall,
)

__all__ = [
    "resolve_jobs",
    "chunk_round_robin",
    "map_in_processes",
    "capture_counters",
    "merge_counters",
    "merge_metrics",
]

T = TypeVar("T")
R = TypeVar("R")

#: Below this many tasks a pool costs more than it saves.
MIN_TASKS_FOR_POOL = 2


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: ``None``/1 → serial, ``0`` or a
    negative count → one worker per CPU, otherwise the given count."""
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs <= 0:
        return max(1, os.cpu_count() or 1)
    return jobs


def chunk_round_robin(n_tasks: int, n_chunks: int) -> list[list[int]]:
    """Deal task indices ``0..n_tasks-1`` into ``n_chunks`` round-robin
    hands (adjacent tasks often have correlated cost, so dealing spreads
    the expensive ones).  Empty hands are dropped."""
    hands = [list(range(k, n_tasks, n_chunks)) for k in range(n_chunks)]
    return [h for h in hands if h]


class capture_counters:
    """Context manager that measures the obs-metric delta of its body.

    Works whether or not a session is already installed (a private,
    sink-less session is installed if needed).  After exit:

    * ``.delta`` — the counter delta (kept under this name for
      backwards compatibility with older worker payloads);
    * ``.gauges`` — gauges written or changed inside the body
      (last-write-wins, like gauges themselves: when several workers
      set the same gauge the merge order decides, exactly as serial
      execution order would);
    * ``.histograms`` — bucket-wise histogram deltas, serialized with
      :meth:`Histogram.to_dict` so they pickle across processes;
    * ``.metrics`` — the three bundled into one picklable payload for
      :func:`merge_metrics`.

    Workers use this to ship their metrics back to the parent process;
    merging every worker's payload makes a ``--jobs`` run report the
    same counters, gauges and histogram buckets as a serial run.
    """

    def __init__(self):
        self.delta: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, dict] = {}
        self._installed = False
        self._before: dict[str, int] = {}
        self._before_gauges: dict[str, float] = {}
        self._before_hists: dict = {}

    @property
    def metrics(self) -> dict:
        return {
            "counters": self.delta,
            "gauges": self.gauges,
            "histograms": self.histograms,
        }

    def __enter__(self) -> "capture_counters":
        if current_session() is None:
            install()
            self._installed = True
        counters, gauges = snapshot()
        self._before = dict(counters)
        self._before_gauges = dict(gauges)
        self._before_hists = snapshot_histograms()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        after, after_gauges = snapshot()
        before = self._before
        self.delta = {
            k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)
        }
        self.gauges = {
            k: v
            for k, v in after_gauges.items()
            if k not in self._before_gauges or self._before_gauges[k] != v
        }
        self.histograms = {}
        for name, h in snapshot_histograms().items():
            prev = self._before_hists.get(name)
            if prev is None:
                if h.count:
                    self.histograms[name] = h.to_dict()
                continue
            if h.count == prev.count:
                continue
            # bucket-wise subtraction; ``max`` keeps the after-value (the
            # worker path always starts from a fresh session, where this
            # is exact)
            diff = {
                "count": h.count - prev.count,
                "total": h.total - prev.total,
                "max": h.max,
                "buckets": {
                    str(k): n - prev.buckets.get(k, 0)
                    for k, n in h.buckets.items()
                    if n != prev.buckets.get(k, 0)
                },
            }
            self.histograms[name] = diff
        if self._installed:
            uninstall()
        return False


def merge_counters(delta: dict[str, int]) -> None:
    """Add a worker's counter delta into the current session (no-op when
    observability is off)."""
    for name, n in delta.items():
        counter(name, n)


def merge_metrics(payload: dict) -> None:
    """Merge a worker's full :attr:`capture_counters.metrics` payload —
    counters, gauges and histograms — into the current session (no-op
    when observability is off)."""
    sess = current_session()
    if sess is None:
        return
    merge_counters(payload.get("counters", {}))
    for name, value in payload.get("gauges", {}).items():
        gauge(name, value)
    if payload.get("histograms"):
        from repro.obs import Histogram

        for name, hdict in payload["histograms"].items():
            h = sess.histograms.get(name)
            if h is None:
                h = sess.histograms[name] = Histogram()
            h.merge(hdict)


def map_in_processes(
    fn: Callable[[T], R],
    tasks: Sequence[T],
    *,
    jobs: int,
    min_tasks: int = MIN_TASKS_FOR_POOL,
) -> list[R]:
    """Apply a picklable ``fn`` to picklable ``tasks`` across a process
    pool; results come back in task order.  Serial fallback when the
    fan-out would not pay for itself or a pool is unavailable."""
    jobs = min(jobs, len(tasks))
    if jobs <= 1 or len(tasks) < min_tasks:
        return [fn(t) for t in tasks]
    try:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks))
    except Exception:
        # pool creation or pickling failed (sandboxed env, nested pools,
        # unpicklable payload): the serial path is always correct.
        counter("parallel.process_pool_fallbacks")
        return [fn(t) for t in tasks]
