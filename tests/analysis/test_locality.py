"""Locality metric tests."""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import kernels
from repro.analysis import locality_score, lru_hit_rate, reuse_distances, reuse_histogram
from repro.interp import execute, trace_addresses
from repro.ir import parse_program

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from ledger import zoo  # noqa: E402


def run(src, n):
    p = parse_program(src)
    store, t = execute(p, {"N": n}, trace=True)
    return store, t


class TestReuseDistances:
    def test_streaming_all_cold_per_line(self):
        store, t = run("param N\nreal A(N)\ndo I = 1..N\n S1: A(I) = 1.0\nenddo", 64)
        d = reuse_distances(t, store)
        cold = (d == -1).sum()
        assert cold == 8  # 64 doubles / 8 per line
        # spatial reuse within a line has distance 0
        assert np.all(d[d >= 0] == 0)

    def test_repeat_access_distance_zero(self):
        store, t = run(
            "param N\nreal A(N)\ndo I = 1..N\n S1: A(1) = A(1) + 1\nenddo", 16
        )
        d = reuse_distances(t, store)
        assert (d == -1).sum() == 1
        assert np.all(d[1:] == 0)

    def test_alternating_two_lines(self):
        src = (
            "param N\nreal A(N), B(N)\n"
            "do I = 1..N\n S1: A(1) = B(1) + A(1)\nenddo"
        )
        store, t = run(src, 8)
        d = reuse_distances(t, store)
        # after warmup, every access alternates between two lines: dist 1
        assert set(d[3:].tolist()) <= {0, 1}

    def test_histogram_buckets(self):
        store, t = run("param N\nreal A(N)\ndo I = 1..N\n S1: A(I) = 1.0\nenddo", 64)
        h = reuse_histogram(reuse_distances(t, store))
        assert h["cold"] == 8
        assert sum(h.values()) >= 64

    def test_locality_score_bounds(self):
        store, t = run("param N\nreal A(N)\ndo I = 1..N\n S1: A(I) = 1.0\nenddo", 64)
        s = locality_score(reuse_distances(t, store))
        assert 0.0 <= s <= 1.0
        assert s == 56 / 64  # all non-cold accesses hit

    def test_row_vs_column_order(self):
        row = (
            "param N\nreal A(N,N)\n"
            "do I = 1..N\n do J = 1..N\n  S1: A(I,J) = 1.0\n enddo\nenddo"
        )
        col = (
            "param N\nreal A(N,N)\n"
            "do J = 1..N\n do I = 1..N\n  S1: A(I,J) = 1.0\n enddo\nenddo"
        )
        scores = {}
        for name, src in (("row", row), ("col", col)):
            store, t = run(src, 48)
            scores[name] = locality_score(reuse_distances(t, store), capacity_lines=16)
        assert scores["row"] > scores["col"]


def stack_distances(lines: list[int]) -> list[int]:
    """The textbook O(n²) LRU stack (as in E15's correctness guard)."""
    stack: list[int] = []
    out = []
    for ln in lines:
        if ln in stack:
            idx = stack.index(ln)
            out.append(len(stack) - 1 - idx)
            stack.pop(idx)
        else:
            out.append(-1)
        stack.append(ln)
    return out


class TestLruHitRate:
    @pytest.mark.parametrize("name", list(zoo.KERNELS))
    def test_equals_locality_score_on_zoo_traces(self, name):
        program = getattr(kernels, name)()
        store, t = execute(program, dict(zoo.KERNELS[name].small), trace=True)
        addresses = trace_addresses(t, store)
        distances = reuse_distances(t, store)
        for capacity in (1, 2, 16, 1024):
            assert lru_hit_rate(addresses, capacity) == locality_score(distances, capacity)

    def test_empty_stream(self):
        assert lru_hit_rate(np.empty(0, dtype=np.int64), 16) == 0.0

    @given(st.lists(st.integers(0, 12), max_size=200), st.integers(1, 8))
    def test_matches_naive_stack(self, lines, capacity):
        distances = stack_distances(lines)
        hits = sum(1 for d in distances if 0 <= d < capacity)
        expected = hits / len(lines) if lines else 0.0
        addresses = np.array(lines, dtype=np.int64) * 64 + 8
        assert lru_hit_rate(addresses, capacity) == expected
