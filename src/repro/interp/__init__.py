"""Interpreter, trace oracles and cache model (systems S12/S13)."""

from typing import TYPE_CHECKING

from repro.util.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.interp.cache import CacheConfig, CacheStats, simulate_cache, trace_addresses
    from repro.interp.equivalence import (
        check_equivalence, dependences_preserved, ground_truth_dependences,
        outputs_close, same_instances,
    )
    from repro.interp.executor import ArrayStore, ExecRecord, Trace, default_init, execute

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.interp.cache": (
        "CacheConfig", "CacheStats", "simulate_cache", "trace_addresses",
    ),
    "repro.interp.equivalence": (
        "check_equivalence", "dependences_preserved",
        "ground_truth_dependences", "outputs_close", "same_instances",
    ),
    "repro.interp.executor": (
        "ArrayStore", "ExecRecord", "Trace", "default_init", "execute",
    ),
})
