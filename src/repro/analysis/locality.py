"""Locality metrics over execution traces (system S14).

Complements the cache simulator with machine-independent metrics:
reuse distances (number of distinct cache lines touched between two
accesses to the same line) and their histogram.  Vectorized with numpy
where the trace is long, per the HPC guides.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.interp.cache import trace_addresses
from repro.interp.executor import ArrayStore, Trace

__all__ = ["reuse_distances", "reuse_histogram", "locality_score", "lru_hit_rate"]


def reuse_distances(trace: Trace, store: ArrayStore, line_bytes: int = 64) -> np.ndarray:
    """LRU stack distances per access (-1 for cold accesses).

    Computed over cache lines, so spatial locality counts: touching the
    neighbour of a recently used element is a distance-0 reuse.

    Uses the classic Fenwick-tree formulation (Olken/Bennett–Kruskal):
    a bit is set at the position of the *most recent* access of each
    line, so the stack distance of an access at position ``i`` whose
    line was last touched at ``q`` is the number of set bits strictly
    between them — O(n log n) overall, vs the O(n²) ``stack.index``
    scan this replaced (benchmarks/bench_analysis.py guards it).
    """
    addrs = trace_addresses(trace, store)
    lines = (addrs // line_bytes).tolist()
    n = len(lines)
    out = np.empty(n, dtype=np.int64)
    tree = [0] * (n + 1)

    def add(pos: int, delta: int) -> None:
        pos += 1
        while pos <= n:
            tree[pos] += delta
            pos += pos & -pos

    def prefix(pos: int) -> int:  # set bits in [0, pos]
        pos += 1
        total = 0
        while pos > 0:
            total += tree[pos]
            pos -= pos & -pos
        return total

    last: dict[int, int] = {}
    for i, ln in enumerate(lines):
        q = last.get(ln)
        if q is None:
            out[i] = -1
        else:
            # distinct lines touched since q = set bits in (q, i)
            out[i] = prefix(i - 1) - prefix(q)
            add(q, -1)
        add(i, 1)
        last[ln] = i
    return out


def reuse_histogram(distances: np.ndarray, buckets: tuple[int, ...] = (0, 1, 4, 16, 64, 256, 1024)) -> dict[str, int]:
    """Histogram of reuse distances into power-ish buckets plus cold."""
    out: dict[str, int] = {"cold": int((distances < 0).sum())}
    prev = 0
    d = distances[distances >= 0]
    for b in buckets:
        out[f"<={b}"] = int(((d >= prev) & (d <= b)).sum())
        prev = b + 1
    out[f">{buckets[-1]}"] = int((d > buckets[-1]).sum())
    return out


def locality_score(distances: np.ndarray, capacity_lines: int = 512) -> float:
    """Fraction of accesses that hit a fully associative LRU cache of
    the given capacity — an upper bound on any real cache's hit rate."""
    if distances.size == 0:
        return 0.0
    hits = ((distances >= 0) & (distances < capacity_lines)).sum()
    return float(hits) / float(distances.size)


def lru_hit_rate(addresses: np.ndarray, capacity_lines: int, line_bytes: int = 64) -> float:
    """Fraction of ``addresses`` that hit a fully associative LRU cache
    of ``capacity_lines`` lines: exactly
    ``locality_score(reuse_distances(...), capacity_lines)``, in O(n).

    A repeat of the line just touched is a hit at distance 0 and leaves
    the LRU order as it was, so runs of one line are counted and
    collapsed with NumPy first; only the remaining stream goes through
    an ``OrderedDict`` of the resident lines.
    """
    n = int(addresses.size)
    if n == 0 or capacity_lines < 1:
        return 0.0
    lines = addresses // line_bytes
    changes = np.empty(n, dtype=bool)
    changes[0] = True
    np.not_equal(lines[1:], lines[:-1], out=changes[1:])
    stream = lines[changes].tolist()
    hits = n - len(stream)
    resident: OrderedDict[int, None] = OrderedDict()
    for line in stream:
        if line in resident:
            resident.move_to_end(line)
            hits += 1
        else:
            resident[line] = None
            if len(resident) > capacity_lines:
                resident.popitem(last=False)
    return float(hits) / float(n)
