"""Machine-readable benchmark results: ``BENCH_result.json``.

After every benchmark session (``pytest benchmarks/``), the conftest
hook calls :func:`write_bench_result` to dump

* per-benchmark wall-clock stats harvested from pytest-benchmark, and
* the observability counters of one canonical pipeline pass (parse →
  dependence analysis → legality → completion → codegen → execute →
  cache simulation on the paper's kernels), collected with a fresh
  :class:`repro.obs` session *outside* any timed region so the timings
  stay clean,

seeding the perf trajectory that future optimisation PRs diff against.
Each run overwrites the file; trajectory history lives in version
control.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

__all__ = [
    "collect_pipeline_counters", "collect_backend_speedups",
    "collect_tune_results", "collect_scaling_results",
    "collect_wavefront_results", "collect_service_results",
    "collect_symbolic_results", "collect_benchmark_stats",
    "write_bench_result",
]

RESULT_NAME = "BENCH_result.json"

#: N ladder of the blocking/fusion scaling curves (E18); CI runs the
#: first two points, REPRO_BENCH_FULL=1 adds the third (its untuned
#: baselines alone run for minutes).
SCALING_SIZES = (256, 512)
SCALING_FULL_SIZES = (256, 512, 1024)


def collect_pipeline_counters() -> dict:
    """Run the canonical pipeline pass under a fresh obs session and
    return its counters/gauges.  Independent of the benchmark timings."""
    from repro import obs
    from repro.codegen import generate_code
    from repro.completion import complete_transformation
    from repro.dependence import analyze_dependences
    from repro.instance import Layout
    from repro.interp import simulate_cache, trace_addresses
    from repro.interp.executor import execute
    from repro.kernels import cholesky, simplified_cholesky
    from repro.legality import check_legality
    from repro.transform import reversal

    mem = obs.MemorySink()
    with obs.session(mem) as sess:
        for program in (simplified_cholesky(), cholesky()):
            layout = Layout(program)
            deps = analyze_dependences(program, layout=layout)
            completed = complete_transformation(program, deps=deps, layout=layout)
            generated = generate_code(program, completed.matrix, deps)
            t = reversal(layout, layout.loop_coords()[-1].var)
            check_legality(layout, t.matrix, deps)
            store, trace = execute(generated.program, {"N": 8}, trace=True)
            simulate_cache(trace_addresses(trace, store))
        counters = dict(sess.counters)
        gauges = dict(sess.gauges)
        span_ns = {
            sp.name: sp.duration_ns
            for root in mem.roots
            for sp, _ in root.walk()
        }
    return {"counters": counters, "gauges": gauges, "span_last_ns": span_ns}


def collect_backend_speedups() -> list[dict]:
    """The execution-backend comparison table (E16): wall clock and
    speedup-vs-reference for every backend on a dense factorization and
    a stencil.  ``compare.py`` gates on the ``source`` rows staying at
    least as fast as the reference interpreter."""
    from repro.backend import bench_backends
    from repro.kernels import cholesky, jacobi_1d

    rows = []
    for program, params in (
        (cholesky(), {"N": 40}),
        (jacobi_1d(), {"N": 1000, "T": 10}),
    ):
        for r in bench_backends(program, params, repeat=2):
            rows.append({
                "kernel": program.name,
                "params": dict(params),
                "backend": r.backend,
                "seconds": None if r.error else r.seconds,
                "speedup": r.speedup,
                "ok": r.ok,
                "error": r.error,
            })
    return rows


def collect_tune_results() -> list[dict]:
    """The autotuner comparison table (E17): one small guided search per
    kernel, recording the winner against the always-measured untuned
    default.  ``compare.py`` gates on the tuned schedule never losing to
    the default (the baseline is in the measured set, so speedup < 1
    means the driver stopped ranking it).  Runs cache-less so the
    emitted numbers are always a fresh search."""
    import tempfile

    from repro.kernels import cholesky, simplified_cholesky
    from repro.tune import TuneStore, tune

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for program, params in (
            (cholesky(), {"N": 40}),
            (simplified_cholesky(), {"N": 40}),
        ):
            try:
                res = tune(
                    program, params, store=TuneStore(tmp),
                    backend="source-vec", beam_width=2, depth=1, top_k=2,
                    repeat=3, use_cache=False,
                )
            except Exception as exc:
                rows.append({
                    "kernel": program.name, "params": dict(params),
                    "backend": "source-vec", "winner": None,
                    "baseline_seconds": None, "best_seconds": None,
                    "speedup": None, "ok": False, "error": str(exc),
                })
                continue
            rows.append({
                "kernel": program.name,
                "params": dict(params),
                "backend": res.backend,
                "winner": res.best.description if res.best else None,
                "baseline_seconds": res.baseline_seconds,
                "best_seconds": res.best.seconds if res.best else None,
                "speedup": res.speedup,
                "enumerated": res.enumerated,
                "pruned": res.pruned,
                "scored": res.scored,
                "ok": res.ok,
                "error": "",
            })
    return rows


def collect_scaling_results() -> list[dict]:
    """The tiling/fusion scaling curves (E18): tuned-vs-untuned seconds
    at growing N for the two kernels where loop order (and at the top
    size, blocking) decides the constant factor.  ``compare.py`` gates
    each point on the tuned winner beating the untuned default order by
    at least :data:`benchmarks.compare.SCALING_MIN_SPEEDUP`.

    Opt-in via ``REPRO_BENCH_SCALING=1`` — every point measures its
    real-size untuned baseline, so this section costs minutes, not
    seconds (CI sets it only for the real benchmark pass).
    ``REPRO_BENCH_FULL=1`` extends the ladder to N=1024 and additionally
    requires the trmm winner there to be a *tiled* schedule — the one
    regime on this suite where blocking beats every untiled order
    (docs/TILING.md has the honest analysis of where it does not, and
    of why the full-mode pass is an hour-scale job)."""
    import os
    import tempfile

    if os.environ.get("REPRO_BENCH_SCALING", "0") != "1":
        return []
    from repro.kernels import cholesky_variant, trmm
    from repro.transform.tiling import TILE_LADDER
    from repro.tune import TuneStore, tune

    full = os.environ.get("REPRO_BENCH_FULL", "0") == "1"
    sizes = SCALING_FULL_SIZES if full else SCALING_SIZES
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for program in (cholesky_variant("jik"), trmm()):
            for n in sizes:
                try:
                    res = tune(
                        program, {"N": n}, store=TuneStore(tmp),
                        backend="source-vec", tile_sizes=TILE_LADDER,
                        cross_check="model", repeat=1, use_cache=False,
                    )
                except Exception as exc:
                    rows.append({
                        "kernel": program.name, "n": n,
                        "untuned_seconds": None, "tuned_seconds": None,
                        "speedup": None, "winner": None,
                        "winner_tiled": None, "require_tiled": False,
                        "ok": False, "error": str(exc),
                    })
                    continue
                winner_tiled = bool(
                    res.best is not None
                    and res.best.candidate is not None
                    and res.best.candidate.context.is_tiled
                )
                rows.append({
                    "kernel": program.name,
                    "n": n,
                    "untuned_seconds": res.baseline_seconds,
                    "tuned_seconds": res.best.seconds if res.best else None,
                    "speedup": res.speedup,
                    "winner": res.best.description if res.best else None,
                    "winner_tiled": winner_tiled,
                    "require_tiled": full and program.name == "trmm" and n == 1024,
                    "ok": res.ok,
                    "error": "",
                })
    return rows


def collect_wavefront_results() -> list[dict]:
    """The wavefront parallel comparison (E19): ``source-par`` versus the
    scalar ``source`` backend on a skewed 2-D Gauss-Seidel stencil (the
    canonical wavefront workload — ``skew(I,J,1)`` turns its diagonal
    dependence pattern into DOALL fronts) and on cholesky (narrow
    triangular fronts; reported for the table but not gated, since
    dispatch overhead legitimately eats the win there).  ``compare.py``
    gates the stencil rows on bit-exact outputs and on source-par
    clearing :data:`benchmarks.compare.WAVEFRONT_MIN_SPEEDUP`.

    Opt-in via ``REPRO_BENCH_WAVEFRONT=1`` (the CI par-smoke job, which
    skips the minutes-long E18 scaling tune) or ``REPRO_BENCH_SCALING=1``
    (full local runs get it alongside the scaling curves).
    """
    import os

    if (os.environ.get("REPRO_BENCH_WAVEFRONT", "0") != "1"
            and os.environ.get("REPRO_BENCH_SCALING", "0") != "1"):
        return []
    import numpy as np

    from repro import obs
    from repro.backend import run, time_backend
    from repro.codegen import generate_code
    from repro.codegen.simplify import simplify_program
    from repro.kernels import cholesky, seidel_2d
    from repro.transform.spec import parse_schedule

    sched = parse_schedule(seidel_2d(), "skew(I, J, 1)")
    generated = generate_code(sched.program, sched.matrix, sched.deps)
    skewed = simplify_program(generated.program)
    skewed = skewed.with_body(skewed.body, name="seidel_2d_skewed")

    rows = []
    for program, n, gated in (
        (skewed, 256, True),
        (cholesky(), 64, False),
    ):
        params = {"N": n}
        try:
            expected = run(program, params, backend="reference")
            # Harvest front shape from one correctness run so the
            # counters are per-run, not accumulated over timing reps.
            mem = obs.MemorySink()
            with obs.session(mem) as sess:
                got = run(program, params, backend="source-par")
                fronts = sess.counters.get("backend.wavefront.fronts", 0)
                hist = sess.histograms.get("backend.wavefront.front_width")
            ok = all(
                np.array_equal(expected.arrays[k], got.arrays[k])
                for k in expected.arrays
            )
            source_s = time_backend(program, params, backend="source", repeat=3)
            par_s = time_backend(program, params, backend="source-par", repeat=3)
            rows.append({
                "kernel": program.name,
                "n": n,
                "source_seconds": source_s,
                "par_seconds": par_s,
                "speedup": source_s / par_s if par_s else None,
                "fronts": fronts,
                "front_width_p50": hist.p50 if hist else None,
                "front_width_p99": hist.p99 if hist else None,
                "gate": gated,
                "ok": ok,
                "error": "",
            })
        except Exception as exc:
            rows.append({
                "kernel": program.name, "n": n,
                "source_seconds": None, "par_seconds": None,
                "speedup": None, "fronts": None,
                "front_width_p50": None, "front_width_p99": None,
                "gate": gated, "ok": False, "error": str(exc),
            })
    return rows


#: E20 measurement shape: warm latencies are per-request medians over
#: this many requests against a primed daemon; cold latencies are
#: medians over this many full CLI subprocess invocations.
SERVICE_WARM_REPEAT = 20
SERVICE_COLD_REPEAT = 3
SERVICE_CLIENTS = 8
SERVICE_CLIENT_REQUESTS = 25


def collect_service_results() -> list[dict]:
    """The transformation-service comparison (E20): per-request latency
    of a *warm* daemon (shard map and result caches primed, engine
    memos hot) against *cold* one-shot CLI subprocesses that pay
    interpreter start-up, parse, and a from-scratch analysis every
    time, plus sustained request throughput under
    :data:`SERVICE_CLIENTS` concurrent clients.  ``compare.py`` gates
    the latency rows on the warm path clearing
    :data:`benchmarks.compare.SERVICE_MIN_SPEEDUP` (5x).

    Opt-in via ``REPRO_BENCH_SERVICE=1`` (the CI service-smoke job) —
    the cold side forks real subprocesses, so this section costs tens
    of seconds.
    """
    import os

    if os.environ.get("REPRO_BENCH_SERVICE", "0") != "1":
        return []
    import statistics
    import subprocess
    import tempfile
    import threading
    import time

    from repro.ir import program_to_str
    from repro.kernels import cholesky, seidel_2d, trmm
    from repro.service.client import ServiceClient
    from repro.service.server import ServiceServer

    repo = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo / "src")

    def cold_seconds(argv: list[str]) -> float:
        times = []
        for _ in range(SERVICE_COLD_REPEAT):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                capture_output=True, text=True, env=env, cwd=str(repo),
            )
            times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise RuntimeError(
                    f"cold CLI failed: {proc.stderr.strip()[:200]}"
                )
        return statistics.median(times)

    def warm_seconds(request) -> float:
        request()  # prime the shard + result caches
        times = []
        for _ in range(SERVICE_WARM_REPEAT):
            t0 = time.perf_counter()
            request()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    rows: list[dict] = []
    with tempfile.TemporaryDirectory() as tmp:
        server = ServiceServer(port=0, tune_dir=os.path.join(tmp, "tune"))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(server.url, timeout=120.0)
        client.wait_ready(timeout=15.0)
        try:
            sources: dict[str, str] = {}
            workload: list[tuple[str, str, list[str], object]] = []
            for factory in (cholesky, trmm, seidel_2d):
                program = factory()
                src = program_to_str(program)
                sources[program.name] = src
                path = os.path.join(tmp, f"{program.name}.loop")
                Path(path).write_text(src)
                workload.append((
                    program.name, "analyze", ["deps", path],
                    lambda src=src: client.request("analyze", program=src),
                ))
            chol_path = os.path.join(tmp, "cholesky.loop")
            workload.append((
                "cholesky", "transform",
                ["transform", chol_path, "skew(I,K,1)"],
                lambda: client.request(
                    "transform", program=sources["cholesky"], spec="skew(I,K,1)"
                ),
            ))

            for kernel, op, argv, request in workload:
                try:
                    cold_s = cold_seconds(argv)
                    warm_s = warm_seconds(request)
                    rows.append({
                        "kernel": kernel, "op": op,
                        "cold_seconds": cold_s, "warm_seconds": warm_s,
                        "speedup": cold_s / warm_s if warm_s else None,
                        "gate": True, "ok": True, "error": "",
                    })
                except Exception as exc:
                    rows.append({
                        "kernel": kernel, "op": op,
                        "cold_seconds": None, "warm_seconds": None,
                        "speedup": None, "gate": True, "ok": False,
                        "error": str(exc),
                    })

            # sustained throughput: every client hammers the full warm
            # mix, so the number reflects lock contention and the HTTP
            # layer, not analysis cost
            try:
                errors: list[str] = []
                lock = threading.Lock()

                def hammer():
                    for i in range(SERVICE_CLIENT_REQUESTS):
                        _, _, _, request = workload[i % len(workload)]
                        try:
                            request()
                        except Exception as exc:
                            with lock:
                                errors.append(str(exc))

                threads = [
                    threading.Thread(target=hammer)
                    for _ in range(SERVICE_CLIENTS)
                ]
                t0 = time.perf_counter()
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                elapsed = time.perf_counter() - t0
                total = SERVICE_CLIENTS * SERVICE_CLIENT_REQUESTS
                rows.append({
                    "kernel": "mixed", "op": "throughput",
                    "rps": total / elapsed if elapsed else None,
                    "requests": total, "clients": SERVICE_CLIENTS,
                    "gate": False, "ok": not errors,
                    "error": "; ".join(errors[:3]),
                })
            except Exception as exc:
                rows.append({
                    "kernel": "mixed", "op": "throughput", "rps": None,
                    "requests": 0, "clients": SERVICE_CLIENTS,
                    "gate": False, "ok": False, "error": str(exc),
                })
        finally:
            server.request_shutdown()
            thread.join(10)
            server.close()
    return rows


#: E21 rescue zoo: (kernel factory name, spec, expected verdict).  The
#: mismatch row keeps the oracle honest — a broken normalizer that
#: certifies everything shows up here before it shows up in the fuzzer.
SYMBOLIC_ZOO = (
    ("syrk", "reverse(K)", "symbolic-legal"),
    ("syrk", "tile(K,2); reverse(KT)", "symbolic-legal"),
    ("trsv", "reverse(J)", "symbolic-legal"),
    ("cholesky", "reverse(K)", "mismatch"),
)
SYMBOLIC_REPEAT = 3


def collect_symbolic_results() -> list[dict]:
    """The fractal-oracle consultation table (E21): per-appeal latency
    and verdict for the rescue zoo, plus the oracle's own counters from
    one instrumented pass.  ``compare.py`` gates every row on the
    verdict matching the committed expectation and on certified rows
    carrying a certificate that re-verifies — cheap enough (milliseconds
    per consultation) to run unconditionally, like the backend table."""
    import statistics
    import time

    from repro import obs
    from repro.kernels import cholesky, syrk, trsv
    from repro.symbolic import prove_schedule, verify_certificate

    factories = {"syrk": syrk, "trsv": trsv, "cholesky": cholesky}
    rows = []
    for kernel, spec, expected in SYMBOLIC_ZOO:
        program = factories[kernel]()
        try:
            with obs.session() as sess:
                times = []
                for _ in range(SYMBOLIC_REPEAT):
                    t0 = time.perf_counter()
                    out = prove_schedule(program, spec)
                    times.append(time.perf_counter() - t0)
                attempts = sess.counters.get("symbolic.attempts", 0)
            verified = None
            if out.certificate is not None:
                verified = verify_certificate(program, out.certificate)
            rows.append({
                "kernel": kernel,
                "spec": spec,
                "verdict": out.verdict,
                "expected": expected,
                "check_seconds": statistics.median(times),
                "sizes": list(out.certificate.sizes) if out.certificate else None,
                "attempts": attempts,
                "verified": verified,
                "ok": out.verdict == expected and verified is not False,
                "error": "",
            })
        except Exception as exc:
            rows.append({
                "kernel": kernel, "spec": spec, "verdict": None,
                "expected": expected, "check_seconds": None, "sizes": None,
                "attempts": None, "verified": None, "ok": False,
                "error": str(exc),
            })
    return rows


def collect_benchmark_stats(config) -> list[dict]:
    """Per-benchmark timing stats from pytest-benchmark, if it ran."""
    bsession = getattr(config, "_benchmarksession", None)
    if bsession is None:
        return []
    out = []
    for bench in getattr(bsession, "benchmarks", []):
        stats = getattr(bench, "stats", None)
        if stats is None:
            continue
        try:
            record = {
                "name": bench.name,
                "group": bench.group,
                "rounds": stats.rounds,
                "mean_s": stats.mean,
                "min_s": stats.min,
                "max_s": stats.max,
                "stddev_s": stats.stddev,
            }
        except (AttributeError, ZeroDivisionError):
            continue
        out.append(record)
    return out


def write_bench_result(config, path: str | Path | None = None) -> Path:
    """Assemble and write ``BENCH_result.json`` next to the repo root."""
    from repro import __version__

    target = Path(path) if path is not None else Path(__file__).resolve().parent.parent / RESULT_NAME
    payload = {
        "schema": 1,
        "repro_version": __version__,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "benchmarks": collect_benchmark_stats(config),
        "pipeline": collect_pipeline_counters(),
        "backend": collect_backend_speedups(),
        "tune": collect_tune_results(),
        "scaling": collect_scaling_results(),
        "wavefront": collect_wavefront_results(),
        "service": collect_service_results(),
        "symbolic": collect_symbolic_results(),
    }
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    try:
        try:
            from benchmarks.history import append_snapshot
        except ImportError:
            sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
            from benchmarks.history import append_snapshot

        history_path, _ = append_snapshot(payload)
        print(f"appended snapshot row to {history_path}")
    except Exception as exc:  # the ledger must never block result emission
        print(f"warning: could not append to bench history: {exc}", file=sys.stderr)
    return target
