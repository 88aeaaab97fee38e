"""Metric and workload names the runner emits, and the statistics
behind them.

``BENCHMARK.json`` at the repo root must list exactly these names
(``ledger/tests`` checks both directions).  Every workload reports every
end-to-end metric; a per-layer metric reads 0 in a workload that never
calls that layer — the "predicted no move" pairings of README.md.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

WORKLOADS = ("cli_cold", "compile_cold", "tune_search", "kernel_run", "service_warm")

#: name -> (unit, better)
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "item_geomean_ms": ("ms", "lower"),
    "items_total_ms": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "generated_source_lines": ("count", "lower"),
}

#: name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    "import.python_startup_ms": ("ms", "lower"),
    "import.repro_cli_ms": ("ms", "lower"),
    "import.numpy_ms": ("ms", "lower"),
    "import.networkx_ms": ("ms", "lower"),
    "import.modules_loaded": ("count", "lower"),
    "cli.op_ms": ("ms", "lower"),
    "ir.parse_ms": ("ms", "lower"),
    "dependence.analyze_cold_ms": ("ms", "lower"),
    "dependence.analyze_warm_ms": ("ms", "lower"),
    "dependence.vectors": ("count", "lower"),
    "polyhedra.fm_queries": ("count", "lower"),
    "polyhedra.fm_hit_rate": ("ratio", "higher"),
    "polyhedra.fm_eliminations": ("count", "lower"),
    "polyhedra.fm_evictions": ("count", "lower"),
    "transform.parse_schedule_ms": ("ms", "lower"),
    "legality.check_ms": ("ms", "lower"),
    "legality.accepts": ("count", "higher"),
    "legality.rejects": ("count", "lower"),
    "symbolic.check_ms": ("ms", "lower"),
    "symbolic.certified": ("count", "higher"),
    "completion.complete_ms": ("ms", "lower"),
    "codegen.generate_ms": ("ms", "lower"),
    "codegen.simplify_ms": ("ms", "lower"),
    "codegen.output_lines": ("count", "lower"),
    "backend.lower_scalar_ms": ("ms", "lower"),
    "backend.lower_vec_ms": ("ms", "lower"),
    "backend.lower_par_ms": ("ms", "lower"),
    "backend.lowered_lines": ("count", "lower"),
    "backend.execute_source_ms": ("ms", "lower"),
    "backend.execute_source_vec_ms": ("ms", "lower"),
    "backend.execute_source_par_ms": ("ms", "lower"),
    "interp.reference_ms": ("ms", "lower"),
    "tune.enumerate_ms": ("ms", "lower"),
    "tune.score_ms": ("ms", "lower"),
    "tune.tune_ms": ("ms", "lower"),
    "tune.replay_ms": ("ms", "lower"),
    "tune.enumerated": ("count", "lower"),
    "tune.pruned": ("count", "higher"),
    "tune.scored": ("count", "lower"),
    "tune.speedup_geomean": ("ratio", "higher"),
    "service.startup_ms": ("ms", "lower"),
    "service.first_request_ms": ("ms", "lower"),
    "service.handle_hit_ms": ("ms", "lower"),
    "service.roundtrip_hit_ms": ("ms", "lower"),
    "service.hit_p95_ms": ("ms", "lower"),
    "service.hit_p99_ms": ("ms", "lower"),
    "service.miss_p50_ms": ("ms", "lower"),
    "service.hit_rate": ("ratio", "higher"),
    "service.request_bytes_mean": ("bytes", "lower"),
    "service.response_bytes_mean": ("bytes", "lower"),
    "obs.trace_overhead_pct": ("%", "lower"),
}


def median(values: Iterable[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """First and third quartile; a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def stat_row(values: Sequence[float]) -> dict[str, float]:
    """How every timing is reported: its ``n``, median and quartiles."""
    q1, q3 = quartiles(values)
    return {"n": len(values), "median_ms": median(values), "q1_ms": q1, "q3_ms": q3}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs))


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median — the run-to-run
    steadiness figure the bounds in BENCHMARK.json are compared with."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)
