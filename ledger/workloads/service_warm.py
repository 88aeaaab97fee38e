"""``service_warm`` — a warm ``repro serve`` daemon under a closed loop.

Why: this is what a ``--remote`` user or an IDE sees.  ``service/``
(HTTP, JSON, shard lookup) dominates the result-cache hits; the analysis
layers only matter on the misses.

The daemon is a subprocess.  Two client threads each wait for a reply
before sending the next request (callers of ``--remote`` do the same),
through the repo's own ``ServiceClient``.  Nine requests in ten come
from a fixed pool of 40 (5 programs × 8 requests: 8 results per shard,
well inside the 64-entry shard LRU) and hit the result cache; one in ten
is novel — a fresh skew factor or run size — and misses it on a warm
shard.  Items are ``hit:<op>`` and ``miss`` (the novel requests cost
differently per program and op; only pooled is their median steady),
told apart by the ``cached`` flag of each reply.  Every reply's payload must equal the
in-process ``api.*_op`` payload (all hits, a sample of the misses), and
every pool render is compared byte for byte while priming.
"""

from __future__ import annotations

import itertools
import json
import random
import re
import signal
import subprocess
import sys
import threading
import time

from ledger import layers, zoo
from ledger.bench import polyhedra_metrics, timed
from ledger.metrics import median, percentile

CLIENTS = 2
CHUNK = 400            # requests per client per round
NOVEL_SHARE = 0.10
MISS_SAMPLE = 10       # every n-th miss is recomputed in process
START_TIMEOUT_S = 60
HANDLE_REPS = 5

#: run sizes of the pool (second parameter 3), and the grid the novel run
#: sizes are drawn from: small enough that a miss costs about the same
#: whichever size is drawn, so its median is steady
POOL_SIZES = (6, 8)
SECOND_PARAM = {"syrk": "M", "jacobi_1d": "T"}
NOVEL_GRID = [(n, m) for n in range(4, 10) for m in range(4, 14)]


def plain(payload: dict) -> dict:
    """A payload as it looks after the JSON wire."""
    return json.loads(json.dumps(payload))


def compute(program, op: str, args: dict):
    """The in-process answer to one request."""
    from repro import api

    if op == "analyze":
        return api.analyze_op(program)
    if op == "check":
        return api.check_op(program, args["spec"])
    if op == "transform":
        return api.transform_op(program, args["spec"], simplify=args.get("simplify", False))
    if op == "complete":
        return api.complete_op(program, args["lead"])
    return api.run_op(program, args["params"])


class Workload:
    rss_of_children = True

    def __init__(self, ctx):
        self.ctx = ctx
        self.rng = random.Random(ctx.seed)
        self.daemon = None
        self.pool: list[tuple[str, str, dict, dict]] = []   # (program, op, args, payload)
        self.sampled: list[tuple[str, str, dict, dict]] = []
        self.layers: dict[str, float] = {}
        self.source_lines = 0
        self.misses_seen = 0
        self.rounds = 0

    # -- set-up ----------------------------------------------------------

    def run_params(self, name: str, n: int, m: int) -> dict:
        params = {"N": n}
        if name in SECOND_PARAM:
            params[SECOND_PARAM[name]] = m
        return params

    def build_pool(self) -> list[str]:
        """The 40 pooled requests with their in-process payloads, and the
        seeded stream of novel ones; returns the pool's renders."""
        from repro.ir import parse_program

        specs = zoo.draw_specs(self.ctx.seed)
        self.texts = {name: zoo.kernel_text(name) for name in zoo.SERVICE_PROGRAMS}
        self.programs = {name: parse_program(text, name) for name, text in self.texts.items()}
        renders = []
        for name in zoo.SERVICE_PROGRAMS:
            kernel = zoo.KERNELS[name]
            requests = [
                ("analyze", {}),
                ("check", {"spec": specs[name]}),
                ("check", {"spec": kernel.illegal}),
                ("transform", {"spec": specs[name]}),
                ("transform", {"spec": specs[name], "simplify": True}),
                ("complete", {"lead": kernel.lead}),
            ] + [("run", {"params": self.run_params(name, n, 3)}) for n in POOL_SIZES]
            for op, args in requests:
                result = compute(self.programs[name], op, args)
                self.pool.append((name, op, args, plain(result.to_payload())))
                renders.append(result.render())
                if op in ("transform", "complete"):
                    self.source_lines += layers.lines(result.render())
        self.novel_runs = itertools.cycle(zoo.shuffled(
            self.ctx.seed, [(name, n, m) for name in SECOND_PARAM for n, m in NOVEL_GRID]))
        self.next_factor = self.rng.randrange(4, 1000)
        return renders

    def setup(self) -> None:
        from repro import api
        from repro.service.client import ServiceClient

        rec = self.ctx.rec
        renders = self.build_pool()
        t0 = time.perf_counter()
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"], cwd=self.ctx.tmp,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        url = re.search(r"http://\S+", self.read_banner()).group(0)
        self.layers["service.startup_ms"] = (time.perf_counter() - t0) * 1e3
        self.client = ServiceClient(url, timeout=START_TIMEOUT_S)
        for i, ((name, op, args, payload), render) in enumerate(zip(self.pool, renders)):
            reply, ms = timed(self.client.request_full, op, program=self.texts[name], **args)
            if i == 0:
                self.layers["service.first_request_ms"] = ms
            rec.check(f"prime:{op}:{name}",
                      reply.ok and not reply.cached and reply.result == payload
                      and api.OPS[op].from_payload(reply.result).render() == render,
                      "payload or render differs from the in-process result")
        self.metrics_before = self.client.metrics()

    def read_banner(self) -> str:
        """The daemon's ``listening on URL`` line; a daemon that stays
        silent is killed rather than waited for."""
        timer = threading.Timer(START_TIMEOUT_S, self.daemon.kill)
        timer.start()
        try:
            return self.daemon.stdout.readline()
        finally:
            timer.cancel()

    # -- load ------------------------------------------------------------

    def chunk(self) -> list[tuple[str, str, dict, dict | None]]:
        """The next ``CHUNK`` requests of one client, drawn from the
        seeded stream: ``(program, op, args, expected payload or None)``."""
        out = []
        for _ in range(CHUNK):
            if self.rng.random() >= NOVEL_SHARE:
                out.append(self.rng.choice(self.pool))
                continue
            kind = self.rng.choice(("check", "check", "transform", "transform", "run"))
            if kind == "run":
                name, n, m = next(self.novel_runs)
                out.append((name, "run", {"params": self.run_params(name, n, m)}, None))
            else:
                name = self.rng.choice(zoo.SERVICE_PROGRAMS)
                self.next_factor += 1
                spec = zoo.SERVICE_SKEW[name].format(self.next_factor)
                out.append((name, kind, {"spec": spec}, None))
        return out

    def drive(self, tr, requests, results: list) -> None:
        for name, op, args, payload in requests:
            with tr.span("service.request", f"{op}:{name}"):
                t0 = time.perf_counter()
                try:
                    reply = self.client.request_full(op, program=self.texts[name], **args)
                except Exception as exc:  # noqa: BLE001 - a lost request is a failed op
                    results.append(("miss", (time.perf_counter() - t0) * 1e3, False,
                                    f"{type(exc).__name__}: {exc}", None))
                    continue
                ms = (time.perf_counter() - t0) * 1e3
            ok = reply.ok and (payload is None or reply.result == payload)
            results.append((f"hit:{op}" if reply.cached else "miss", ms, ok,
                            reply.error or "payload differs",
                            (name, op, args, reply.result) if payload is None else None))

    def round(self, tr) -> None:
        work = [(self.chunk(), []) for _ in range(CLIENTS)]
        threads = [threading.Thread(target=self.drive, args=(tr, requests, results))
                   for requests, results in work]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.rounds += 1
        for _, results in work:
            for item, ms, ok, why, novel in results:
                self.ctx.rec.op(item, ms, ok, why)
                if novel is not None and ok:
                    self.misses_seen += 1
                    if self.misses_seen % MISS_SAMPLE == 0:
                        self.sampled.append(novel)

    # -- wrap-up ---------------------------------------------------------

    def verify_misses(self) -> None:
        for name, op, args, got in self.sampled:
            want = plain(compute(self.programs[name], op, args).to_payload())
            self.ctx.rec.check(f"novel:{op}:{name}", got == want,
                               f"{args} differs from the in-process result")

    def daemon_layers(self) -> None:
        """Per-round FM traffic and the result-cache hit rate, from the
        daemon's own ``/metrics`` over the timed phase."""
        before, after = self.metrics_before, self.client.metrics()

        def delta(section, name):
            return after[section].get(name, 0) - before[section].get(name, 0)

        served = delta("pool", "cache_hits") + delta("pool", "cache_misses")
        self.layers.update(polyhedra_metrics(*(
            delta("counters", name) / self.rounds for name in (
                "fm.cache_hits", "fm.cache_misses", "fm.eliminations", "fm.cache_evictions"))))
        self.layers["service.hit_rate"] = delta("pool", "cache_hits") / served if served else 0.0

    def client_layers(self) -> None:
        """Latency percentiles of the traced rounds, wire sizes of the
        pool, and ``handle(wire)`` on a warm in-process service — the
        round trip minus that is HTTP + JSON transport."""
        from repro.service.protocol import REQUEST_TYPES, encode_request
        from repro.service.server import ReproService

        samples = self.ctx.rec.samples[True]
        hits = [ms for item, v in samples.items() if item.startswith("hit:") for ms in v]
        misses = samples["miss"]
        wires = [encode_request(REQUEST_TYPES[op](program=self.texts[name], **args))
                 for name, op, args, _ in self.pool]
        service = ReproService()
        try:
            replies = [service.handle(wire) for wire in wires]
            handled = [timed(service.handle, wire)[1]
                       for _ in range(HANDLE_REPS) for wire in wires]
        finally:
            service.jobs.stop(wait=True)
        self.layers.update({
            "service.roundtrip_hit_ms": median(hits),
            "service.hit_p95_ms": percentile(hits, 95),
            "service.hit_p99_ms": percentile(hits, 99),
            "service.miss_p50_ms": median(misses),
            "service.handle_hit_ms": median(handled),
            "service.request_bytes_mean":
                sum(len(json.dumps(w)) for w in wires) / len(wires),
            "service.response_bytes_mean":
                sum(len(json.dumps(r.to_wire())) for r in replies) / len(replies),
        })

    def stop_daemon(self) -> None:
        if self.daemon is None:
            return
        self.daemon.send_signal(signal.SIGTERM)
        try:
            self.daemon.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.daemon.kill()
            self.daemon.wait()
        self.daemon.stdout.close()

    def finish(self) -> dict:
        try:
            if self.rounds:
                self.verify_misses()
                if self.ctx.trace:
                    self.daemon_layers()
                    self.client_layers()
        finally:
            self.stop_daemon()
        return {"generated_source_lines": self.source_lines, "layers": self.layers}
