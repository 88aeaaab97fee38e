"""Dependence analysis (systems S5/S6, paper §3)."""

from typing import TYPE_CHECKING

from repro.util.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.dependence.analyze import (
        AccessInfo, analyze_dependences, iter_conflicting_pairs, statement_domain,
    )
    from repro.dependence.classic import (
        SubscriptPair, banerjee_test, exact_test, gcd_test,
    )
    from repro.dependence.depvector import DepKind, DependenceMatrix, DepVector
    from repro.dependence.entry import NEG_INF, POS_INF, DepEntry
    from repro.dependence.refine import observed_hulls, refine_dependences

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.dependence.analyze": (
        "AccessInfo", "analyze_dependences", "iter_conflicting_pairs",
        "statement_domain",
    ),
    "repro.dependence.classic": (
        "SubscriptPair", "banerjee_test", "exact_test", "gcd_test",
    ),
    "repro.dependence.depvector": ("DepKind", "DependenceMatrix", "DepVector"),
    "repro.dependence.entry": ("NEG_INF", "POS_INF", "DepEntry"),
    "repro.dependence.refine": ("observed_hulls", "refine_dependences"),
})
