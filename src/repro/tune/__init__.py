"""Guided schedule autotuner (docs/AUTOTUNING.md).

Searches the space of *legal* transformed schedules of a loop nest —
permutations via the completion procedure, and the transformation
catalogue's kinds at their sites (skews seeded from the dependence
matrix, reversals, statement reorderings, distribution/fusion
variants) — ranks them with a static
locality + vectorizability cost model, measures the top survivors with
a real backend, and persists the winner in a content-addressed cache so
the search runs once per (program, params, version).

Layers::

    space.py   what to try      (candidate enumeration, deduped)
    cost.py    what looks good  (static model over legal candidates)
    driver.py  what wins        (beam search + measured ranking)
    store.py   remember it      (persistent .repro_tune/ cache)
"""

from repro.tune.cost import CostReport, model_params_for, score_candidate
from repro.tune.driver import (
    DEFAULT_BACKEND, TunedRow, TuneResult, apply_entry, load_tuned, tune,
)
from repro.tune.space import (
    Candidate, Context, base_contexts, compose_candidate, dedupe,
    elementary_candidates, enumerate_candidates, identity_candidate,
    lead_candidate, lead_candidates, make_context,
)
from repro.tune.store import TuneStore

__all__ = [
    "Candidate", "Context", "CostReport", "DEFAULT_BACKEND", "TuneResult",
    "TunedRow", "TuneStore", "apply_entry", "base_contexts",
    "compose_candidate", "dedupe", "elementary_candidates",
    "enumerate_candidates", "identity_candidate", "lead_candidate",
    "lead_candidates", "load_tuned", "make_context", "model_params_for",
    "score_candidate", "tune",
]
