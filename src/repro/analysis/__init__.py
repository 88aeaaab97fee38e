"""Parallelism and locality analyses (system S14)."""

from typing import TYPE_CHECKING

from repro.util.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.locality import (
        locality_score, lru_hit_rate, reuse_distances, reuse_histogram,
    )
    from repro.analysis.parallel import (
        LoopParallelism, outer_parallel_unit_rows, parallel_loops,
    )
    from repro.analysis.graph import (
        dependence_graph, distribution_plan, maximal_distribution,
    )
    from repro.analysis.search import SearchResult, search_loop_orders

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.analysis.locality": (
        "locality_score", "lru_hit_rate", "reuse_distances", "reuse_histogram",
    ),
    "repro.analysis.parallel": (
        "LoopParallelism", "outer_parallel_unit_rows", "parallel_loops",
    ),
    "repro.analysis.graph": (
        "dependence_graph", "distribution_plan", "maximal_distribution",
    ),
    "repro.analysis.search": ("SearchResult", "search_loop_orders"),
})
