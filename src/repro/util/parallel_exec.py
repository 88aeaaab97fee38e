"""Process fan-out for ``repro fuzz --jobs N``.

:func:`repro.fuzz.runner.fuzz_run` deals its case indices into hands
(:func:`chunk_round_robin`) and runs each hand in a worker process
(:func:`map_in_processes`).  Each worker measures its observability
metrics with :class:`capture_counters` and returns them alongside its
results, and the parent merges them (:func:`merge_metrics`): spans stay
parent-side, counters, gauges and histogram buckets stay exact.

Results always come back in task order, so a parallel run is
bit-identical to a serial one.  The map runs serially when one worker
would do, and falls back to serial only when a pool cannot be created
at all (restricted environments); a task that raises is never re-run.
There is no thread fan-out: the per-case work is pure Python under the
GIL.
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
    "merge_metrics",
]

T = TypeVar("T")
R = TypeVar("R")


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
    sink-less session is installed if needed).  After exit ``.metrics``
    holds one picklable payload for :func:`merge_metrics`:

    * ``"counters"`` — the counter delta;
    * ``"gauges"`` — gauges written or changed inside the body
      (last-write-wins, like gauges themselves: when several workers
      set the same gauge the merge order decides, exactly as serial
      execution order would);
    * ``"histograms"`` — bucket-wise histogram deltas, serialized with
      :meth:`Histogram.to_dict`.

    Merging every worker's payload makes a ``fuzz --jobs`` run report
    the same counters, gauges and histogram buckets as a serial run.
    """

    def __init__(self):
        self.metrics: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        self._installed = False
        self._before: dict[str, int] = {}
        self._before_gauges: dict[str, float] = {}
        self._before_hists: dict = {}

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
        histograms = {}
        for name, h in snapshot_histograms().items():
            prev = self._before_hists.get(name)
            if prev is None:
                if h.count:
                    histograms[name] = h.to_dict()
                continue
            if h.count == prev.count:
                continue
            # bucket-wise subtraction; ``max`` keeps the after-value (the
            # worker path always starts from a fresh session, where this
            # is exact)
            histograms[name] = {
                "count": h.count - prev.count,
                "total": h.total - prev.total,
                "max": h.max,
                "buckets": {
                    str(k): n - prev.buckets.get(k, 0)
                    for k, n in h.buckets.items()
                    if n != prev.buckets.get(k, 0)
                },
            }
        self.metrics = {
            "counters": {
                k: v - before.get(k, 0)
                for k, v in after.items() if v != before.get(k, 0)
            },
            "gauges": {
                k: v
                for k, v in after_gauges.items()
                if k not in self._before_gauges or self._before_gauges[k] != v
            },
            "histograms": histograms,
        }
        if self._installed:
            uninstall()
        return False


def merge_metrics(payload: dict) -> None:
    """Merge a worker's full :attr:`capture_counters.metrics` payload —
    counters, gauges and histograms — into the current session (no-op
    when observability is off)."""
    sess = current_session()
    if sess is None:
        return
    for name, n in payload.get("counters", {}).items():
        counter(name, n)
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
) -> list[R]:
    """Apply a picklable ``fn`` to picklable ``tasks`` across ``jobs``
    worker processes; results come back in task order.

    Serial when one worker would do.  Only a pool that cannot be created
    (no working semaphores in a sandbox, no ``_multiprocessing``) falls
    back to the serial loop, counted by ``parallel.process_pool_fallbacks``.
    A task's own exception, or a worker that dies (``BrokenProcessPool``),
    propagates once: nothing is re-run.
    """
    jobs = min(jobs, len(tasks))
    if jobs <= 1:
        return [fn(t) for t in tasks]
    try:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=jobs)
    except (ImportError, NotImplementedError, OSError):
        counter("parallel.process_pool_fallbacks")
        return [fn(t) for t in tasks]
    with pool:
        return list(pool.map(fn, tasks))
