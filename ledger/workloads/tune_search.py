"""``tune_search`` — the autotuner's search, and its store's replay.

Why: the same polyhedra / dependence / legality / completion layers as
``compile_cold``, used differently — thousands of candidate-generated
FM queries against a *growing* engine cache, driven by ``tune/space.py``
and ``tune/cost.py``.  A cache-key or memo change that helps
``compile_cold`` and costs the high-volume path, or a catalogue refactor
that changes the candidate set, shows here.

Items: ``tune:<kernel>`` searches into a fresh store from a cold engine
(the store's write path included); ``replay:<kernel>`` is the same call
again, answered from the store (its read path).  ``tune()`` itself
cross-checks every measured schedule against the reference interpreter.
"""

from __future__ import annotations

import tempfile

from ledger import layers, zoo
from ledger.bench import layer_ms, timed
from ledger.metrics import geomean, median

#: kernel -> (params, extra ``tune()`` arguments)
SEARCHES = {
    "trmm": ({"N": 32}, {}),
    "cholesky": ({"N": 32}, {"depth": 1}),
    "seidel_2d": ({"N": 96}, {}),
}
REPLAYS = 25
DIRECT_REPS = 3


class Workload:
    rss_of_children = False

    def __init__(self, ctx):
        self.ctx = ctx
        self.order = zoo.shuffled(ctx.seed, SEARCHES)
        self.speedups: dict[str, list[float]] = {k: [] for k in SEARCHES}
        self.counts: dict[str, int] = {}
        self.source_lines = 0

    def setup(self) -> None:
        """Build the programs and run the cheapest search once, unstored
        and untimed, so lazy imports are paid before the first timed op."""
        from repro import kernels
        from repro.tune import tune

        self.programs = {name: getattr(kernels, name)() for name in SEARCHES}
        params, extra = SEARCHES["seidel_2d"]
        tune(self.programs["seidel_2d"], params, use_cache=False, **extra)

    def round(self, tr) -> None:
        from repro.polyhedra import engine
        from repro.tune import TuneStore, tune

        rec = self.ctx.rec
        first = not self.counts
        for name in self.order:
            program = self.programs[name]
            params, extra = SEARCHES[name]
            store = TuneStore(tempfile.mkdtemp(prefix="tune-", dir=self.ctx.tmp))
            engine.cache_clear()
            with tr.span("tune.tune", name):
                found, ms = timed(tune, program, params, store=store, **extra)
            rec.op(f"tune:{name}", ms, found.ok and not found.from_cache,
                   "search failed its cross-check or was served from the store")
            self.speedups[name].append(found.speedup or 1.0)
            for _ in range(REPLAYS):
                with tr.span("tune.replay", name):
                    again, ms = timed(tune, program, params, store=store, **extra)
                rec.op(f"replay:{name}", ms,
                       again.from_cache and again.best.description == found.best.description,
                       "replay missed the store or named another winner")
            if first:
                self.count(name, found)

    def count(self, name: str, found) -> None:
        """Exact counts of the first search, and the lines of code its
        measured schedules generate."""
        from repro.tune.cost import realize

        for key in ("enumerated", "pruned", "scored"):
            self.counts[key] = self.counts.get(key, 0) + getattr(found, key)
        for row in found.rows:
            if row.candidate is not None:
                program = realize(row.candidate, require_legal=row.legality != "symbolic")
                self.source_lines += layers.lines(program)

    def direct_calls(self) -> None:
        """Traced run only: the search's two building blocks called on
        their own (enumeration from a cold engine, the cost model on the
        default order), and dependence analysis on the engine they leave
        warm."""
        from repro.polyhedra import engine
        from repro.tune import enumerate_candidates, score_candidate

        tr = self.ctx.tracer
        for tr.round in range(DIRECT_REPS):
            for name in self.order:
                program = self.programs[name]
                engine.cache_clear()
                with tr.span("tune.enumerate", name):
                    candidates = enumerate_candidates(program)
                with tr.span("tune.score", name):
                    score_candidate(candidates[0], SEARCHES[name][0])
                layers.analyze(tr, name, program, warm=True)
        tr.round = None

    def finish(self) -> dict:
        layer = {}
        if self.ctx.trace and self.counts:
            self.direct_calls()
            layer = layer_ms(self.ctx)
            samples = self.ctx.rec.samples[True]
            for kind in ("tune", "replay"):  # per call: a round replays many times
                layer[f"tune.{kind}_ms"] = sum(
                    median(v) for item, v in samples.items() if item.startswith(kind + ":"))
            layer.update({f"tune.{k}": v for k, v in self.counts.items()})
            layer["tune.speedup_geomean"] = geomean(
                median(v) for v in self.speedups.values())
        return {"generated_source_lines": self.source_lines, "layers": layer}
