"""One workload, run in its own process: ``python -m ledger.bench``.

``ledger/run.py`` starts this with a scrubbed environment (private
bytecode cache, fixed hash seed, single-threaded BLAS) so that engine
caches, lowering caches and peak memory never leak between workloads.
The last line of standard output is one JSON object with the item
statistics, the end-to-end numbers and — in a traced run — the
per-layer numbers.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up starts when this process does

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from ledger import metrics  # noqa: E402
from ledger.trace import (  # noqa: E402
    NullTracer, Tracer, layer_totals, per_round_ms, span_rows,
)

NULL = NullTracer()


class Recorder:
    """Timed samples per item, and every op attempted or failed.

    Traced and untraced rounds keep separate samples: end-to-end
    numbers come from the untraced ones, and the difference between the
    two is the tracing overhead."""

    def __init__(self):
        self.samples: dict[bool, dict[str, list[float]]] = {False: {}, True: {}}
        self.wall: dict[bool, float] = {False: 0.0, True: 0.0}
        self.rounds: dict[bool, int] = {False: 0, True: 0}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.traced = False

    def op(self, item: str, ms: float, ok: bool = True, why: str = "") -> None:
        """One timed operation on ``item``; a wrong output is a failure."""
        self.samples[self.traced].setdefault(item, []).append(ms)
        self.check(item, ok, why)

    def check(self, what: str, ok: bool, why: str = "") -> None:
        """One verified output (timed or not)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {why}" if why else what)

    def item_rows(self, traced: bool = False) -> dict[str, dict]:
        return {item: metrics.stat_row(v) for item, v in self.samples[traced].items()}

    def items_total_ms(self, traced: bool = False) -> float:
        return sum(metrics.median(v) for v in self.samples[traced].values())


class Context:
    def __init__(self, args):
        from repro.polyhedra import engine

        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.tmp = Path(args.tmp)
        self.rec = Recorder()
        self.tracer = Tracer(args.workload, engine.cache_stats) if self.trace else NULL
        #: obs / engine counters summed over the traced rounds
        self.counters: dict[str, float] = {}

    def per_round(self, name: str) -> float:
        """A counter's value per traced round."""
        return self.counters.get(name, 0) / max(1, self.rec.rounds[True])


def timed(fn, *args, **kwargs):
    """``(result, milliseconds)`` of one call."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, (time.perf_counter() - t0) * 1e3


def measure(workload, ctx: Context) -> None:
    """Run whole rounds (every item once) until the next one would
    overrun ``--seconds``.  A traced run alternates untraced and traced
    rounds so drift hits both sides alike."""
    from repro import obs
    from repro.polyhedra import engine

    rec = ctx.rec
    start = time.perf_counter()
    last = 0.0
    done = 0
    while True:
        rec.traced = ctx.trace and done % 2 == 1
        tr = ctx.tracer if rec.traced else NULL
        if rec.traced:
            ctx.tracer.round = rec.rounds[True]
            obs.install()
            before = engine.cache_stats()
        t0 = time.perf_counter()
        try:
            workload.round(tr)
        finally:
            last = time.perf_counter() - t0
            if rec.traced:
                counters = dict(obs.snapshot()[0])
                obs.uninstall()
                after = engine.cache_stats()
                counters["engine.hits"] = after.hits - before.hits
                counters["engine.misses"] = after.misses - before.misses
                counters["engine.evictions"] = after.evictions - before.evictions
                for name, value in counters.items():
                    ctx.counters[name] = ctx.counters.get(name, 0) + value
                ctx.tracer.round = None
        rec.wall[rec.traced] += last
        rec.rounds[rec.traced] += 1
        done += 1
        balanced = not ctx.trace or done % 2 == 0
        if balanced and time.perf_counter() - start + last * (2 if ctx.trace else 1) > ctx.seconds:
            break
    rec.traced = False


def layer_ms(ctx: Context, phase=per_round_ms) -> dict[str, float]:
    """``<span name>_ms`` for every span name that is a per-layer metric:
    what one traced round spends there (``phase=per_round_ms``) or what
    set-up spent there (``phase=setup_ms``)."""
    spans = ctx.tracer.spans if ctx.trace else []
    return {f"{name}_ms": phase(spans, name)
            for name in {s["name"] for s in spans} if f"{name}_ms" in metrics.PER_LAYER}


def polyhedra_metrics(hits, misses, eliminations, evictions=0) -> dict[str, float]:
    """FM-cache traffic as the four ``polyhedra.*`` metrics; the hit
    rate is the layer's useful / attempted ratio."""
    return {
        "polyhedra.fm_queries": hits + misses,
        "polyhedra.fm_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "polyhedra.fm_eliminations": eliminations,
        "polyhedra.fm_evictions": evictions,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tmp", required=True, help="scratch directory of this run")
    ap.add_argument("--trace-out", help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    ctx = Context(args)
    module = importlib.import_module(f"ledger.workloads.{args.workload}")
    workload = module.Workload(ctx)
    try:
        workload.setup()
        setup_s = time.perf_counter() - _T0
        measure(workload, ctx)
    finally:
        extra = workload.finish()
    rec = ctx.rec

    ops = sum(len(v) for v in rec.samples[False].values())
    who = resource.RUSAGE_CHILDREN if workload.rss_of_children else resource.RUSAGE_SELF
    result = {
        "workload": args.workload, "seed": args.seed, "trace": int(ctx.trace),
        "attempted": rec.attempted, "failed": rec.failed, "failures": rec.failures,
        "rounds": rec.rounds[False], "items": rec.item_rows(),
        "end_to_end": {
            "setup_s": setup_s,
            "item_geomean_ms": metrics.geomean(
                r["median_ms"] for r in rec.item_rows().values()),
            "items_total_ms": rec.items_total_ms(),
            "ops_per_s": ops / rec.wall[False],
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            "generated_source_lines": extra.pop("generated_source_lines"),
        },
    }
    if ctx.trace:
        untraced, traced = rec.items_total_ms(False), rec.items_total_ms(True)
        in_process = polyhedra_metrics(*map(ctx.per_round, (
            "engine.hits", "engine.misses", "fm.eliminations", "engine.evictions")))
        layers = {**in_process, **extra.pop("layers")}
        layers["obs.trace_overhead_pct"] = (traced - untraced) / untraced * 100.0
        result["per_layer"] = layers
        result["traced_rounds"] = rec.rounds[True]
        result["traced_items"] = rec.item_rows(True)
        result["traced_items_total_ms"] = traced
        result["spans"] = layer_totals(ctx.tracer.spans)
        result["span_rows"] = span_rows(ctx.tracer.spans)
        if args.trace_out:
            ctx.tracer.write_jsonl(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
