"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

show        parse a program, print it with its instance-vector layout
deps        print the dependence matrix (``--refine`` for value-based)
check       test a transformation spec for legality
transform   generate code for a legal transformation spec
complete    complete a partial transformation (lead loop) and generate
run         interpret a program and print final array contents
            (``--tuned`` applies the cached best schedule)
tune        autotune: search legal schedules, measure the best with a
            real backend, persist the winner (docs/AUTOTUNING.md)
parallel    per-loop DOALL verdicts
report      full analysis report (deps, DOALL, distribution plan, search)
explain     decision provenance: why legality / completion /
            vectorization / tuning accepted or rejected each candidate
fuzz        differential fuzzing of the pipeline against the trace
            oracles, with shrinking and a regression corpus
serve       run the transformation service daemon (docs/SERVICE.md)

The pipeline commands (deps, check, transform, complete, run, report)
accept ``--profile`` (print a hierarchical span tree and metrics table
to stderr) and ``--trace-json PATH`` (write the spans and metrics as
JSON lines); see :mod:`repro.obs` and docs/OBSERVABILITY.md.

The service-backed commands (deps, check, transform, complete, run,
tune, explain) accept ``--remote URL`` (or ``$REPRO_REMOTE``) to execute
against a running ``repro serve`` daemon instead of in-process; output
is byte-identical either way because both paths render through
:mod:`repro.api` (docs/SERVICE.md).

Transformation specs are semicolon-separated elementary transformations;
structural ``tile``/``fuse`` ops rewrite the program and must come first
(docs/TILING.md)::

    tile(I,16); fuse(J); permute(I,J); skew(I,J,-1); align(S1,I,1)

The heavy lifting for every command lives in :mod:`repro.api` — the
shared pipeline-driving layer the service daemon calls too; this module
is only argument parsing and printing.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import __version__, api, obs
from repro.analysis import parallel_loops
from repro.api import load_file as _load
from repro.api import load_flexible as _load_flexible
from repro.api import parse_params as _params
from repro.dependence import analyze_dependences
from repro.instance import Layout, symbolic_vector
from repro.ir import program_to_str
from repro.linalg import IntMatrix
from repro.backend.names import BACKENDS as _BACKEND_CHOICES
from repro.transform.spec import parse_spec
from repro.util.errors import LegalityError, ReproError

#: exit codes shared with scripts and CI: 0 accepted, 1 rejected
#: verdict, 2 analysis/usage error, 3 illegal transformation rejected
#: as an error (``error_kind="LegalityError"`` over the service wire)
EXIT_ILLEGAL_TRANSFORM = 3

__all__ = ["main", "parse_spec"]


def _remote_url(args) -> str | None:
    """The daemon URL this invocation targets, if any (--remote flag or
    the REPRO_REMOTE environment variable)."""
    url = getattr(args, "remote", None)
    if url:
        return url
    return os.environ.get("REPRO_REMOTE") or None


def _run_op(args, op: str, program, **fields):
    """Run one pipeline op and return its result object: in-process, or
    against the daemon ``--remote``/``$REPRO_REMOTE`` names.  ``fields``
    are the op's request fields (:data:`repro.api.OPS`) either way."""
    url = _remote_url(args)
    if url:
        from repro.service.client import ServiceClient

        payload = ServiceClient(url).request(
            op, program=program_to_str(program), **fields
        )
        return api.OPS[op].from_payload(payload)
    return api.execute(
        op, program, fields, cache_dir=getattr(args, "cache_dir", None)
    )


def cmd_show(args) -> int:
    program = _load(args.file)
    print(program_to_str(program))
    layout = Layout(program)
    print("\ninstance-vector layout:")
    print(layout.describe())
    print("\ngeneral instance vectors:")
    for label in layout.statement_labels():
        vec = [str(e) for e in symbolic_vector(layout, label)]
        print(f"  {label}: [{', '.join(vec)}]")
    return 0


def cmd_deps(args) -> int:
    result = _run_op(
        args, "analyze", _load(args.file), refine=args.refine,
        sample_params=tuple(args.param or ()),
    )
    print(result.render())
    return 0


def cmd_check(args) -> int:
    result = _run_op(
        args, "check", _load(args.file), spec=args.spec, symbolic=args.symbolic
    )
    print(result.render())
    return result.exit_code


def cmd_transform(args) -> int:
    result = _run_op(args, "transform", _load(args.file), spec=args.spec)
    if args.output:
        with open(args.output, "w") as f:
            f.write(result.render() + "\n")
        print(f"wrote {args.output}")
    else:
        print(result.render())
    return 0


def cmd_complete(args) -> int:
    result = _run_op(args, "complete", _load(args.file), lead=args.lead)
    print(result.render())
    return 0


def _tuned_program(program, params, cache_dir):
    """Swap in the cached tuned schedule for ``program`` or fail loudly."""
    from repro.tune import TuneStore, apply_entry, load_tuned
    from repro.util.errors import TuneError

    store = TuneStore(cache_dir) if cache_dir else TuneStore()
    entry = load_tuned(program, params, store=store)
    if entry is None:
        raise TuneError(
            f"no cached tuning entry for {program.name!r} at params {params} "
            f"in {store.root} — run `repro tune` first (same --params)"
        )
    return apply_entry(entry), entry


def cmd_run(args) -> int:
    program = _load_flexible(args.file)
    banner = ""
    if args.tuned:
        if _remote_url(args):
            raise ReproError(
                "--tuned is a local-cache feature; tune through the daemon "
                "(repro tune --remote) and run the materialized schedule"
            )
        from repro.tune.driver import DEFAULT_PARAM

        params = _params(args.param) or {p: DEFAULT_PARAM for p in program.params}
        program, entry = _tuned_program(program, params, args.cache_dir)
        w = entry["winner"]
        banner = (f"applying tuned schedule: {w['description']} "
                  f"(measured {w['seconds']:.6f}s on {entry['backend']})")
        args.param = [f"{k}={v}" for k, v in params.items()]
    result = _run_op(
        args, "run", program, params=_params(args.param), backend=args.backend,
        trace=args.trace,
    )
    result.tuned_banner = banner
    print(result.render())
    return 0


def cmd_bench(args) -> int:
    """Wall-clock comparison of the execution backends on one program,
    with every backend's outputs cross-checked against the reference."""
    from repro.backend import BACKENDS, bench_backends

    program = _load_flexible(args.file)
    params = _params(args.param) or {p: 40 for p in program.params}
    backends = tuple(args.backend) if args.backend else BACKENDS
    rows = bench_backends(program, params, backends=backends, repeat=args.repeat)
    print(f"program {program.name}  params {params}  (best of {args.repeat})")
    print(f"{'backend':<12} {'seconds':>12} {'speedup':>9}  ok")
    failed = False
    for r in rows:
        if r.error:
            print(f"{r.backend:<12} {'-':>12} {'-':>9}  error: {r.error}")
            failed = True
            continue
        speed = f"{r.speedup:.2f}x" if r.speedup is not None else "1.00x"
        ok = "-" if r.ok is None else ("yes" if r.ok else "NO")
        print(f"{r.backend:<12} {r.seconds:>12.6f} {speed:>9}  {ok}")
        if r.ok is False:
            failed = True
    if args.json:
        import json

        payload = [
            {
                "backend": r.backend,
                "seconds": None if r.error else r.seconds,
                "speedup": r.speedup,
                "ok": r.ok,
                "error": r.error,
            }
            for r in rows
        ]
        with open(args.json, "w") as f:
            json.dump({"program": program.name, "params": params, "rows": payload}, f, indent=2)
        print(f"wrote {args.json}")
    return 1 if failed else 0


def cmd_tune(args) -> int:
    """Autotune a program: search the legal transformation space, rank
    with the static cost model, measure the top survivors on the chosen
    backend, and persist the winner (docs/AUTOTUNING.md)."""
    from repro.transform.tiling import TILE_LADDER

    program = _load_flexible(args.file)
    params = _params(args.param) or None
    tile_sizes = None
    if args.tile_sizes:
        tile_sizes = tuple(
            int(s) for chunk in args.tile_sizes for s in chunk.split(",") if s
        )
    elif args.tile:
        tile_sizes = TILE_LADDER
    outcome = _run_op(
        args, "tune", program,
        name=program.name,
        params=params,
        backend=args.backend,
        beam_width=args.beam,
        depth=args.depth,
        top_k=args.top_k,
        repeat=args.repeat,
        use_cache=not args.no_cache,
        force=args.force,
        include_structural=args.structural,
        tile_sizes=tile_sizes,
        max_candidates=args.max_candidates,
        cross_check=args.cross_check,
        symbolic=args.symbolic,
    )
    print(outcome.render())
    if args.json:
        import json

        with open(args.json, "w") as f:
            json.dump(outcome.to_payload(), f, indent=2)
        print(f"wrote {args.json}")
    return 0 if outcome.ok else 1


def cmd_report(args) -> int:
    """Full analysis report: layout, dependences, DOALL verdicts,
    distribution plan, and the legal lead-loop variants ranked by the
    cache model."""
    from repro.analysis import distribution_plan, search_loop_orders

    program = _load_flexible(args.file)
    if getattr(args, "tuned", False):
        from repro.tune.driver import DEFAULT_PARAM

        tparams = _params(args.param) or {p: DEFAULT_PARAM for p in program.params}
        tuned, entry = _tuned_program(program, tparams, args.cache_dir)
        w = entry["winner"]
        print("=== tuned schedule (from cache) ===")
        print(f"winner: {w['description']}  measured {w['seconds']:.6f}s "
              f"on {entry['backend']} at params {entry['params']}")
        print(f"(report below analyzes the tuned program)\n")
        program = tuned
    layout = Layout(program)
    deps = analyze_dependences(program)
    marks = parallel_loops(layout, IntMatrix.identity(layout.dimension), deps)
    plan = distribution_plan(program, deps)
    params = _params(args.param) or {p: 16 for p in program.params}
    backend = getattr(args, "backend", None)
    search_error = None
    try:
        results = search_loop_orders(program, params, verify=False, backend=backend)
    except Exception as exc:  # pragma: no cover - workload-dependent
        search_error = str(exc)
        results = []
    sess = obs.current_session()
    print(
        obs.render_full_report(
            program_text=program_to_str(program),
            layout_text=layout.describe(),
            deps_summary=deps.summary(),
            marks=marks,
            layout=layout,
            plan=plan,
            params=params,
            backend=backend,
            search_results=results,
            search_error=search_error,
            counters=sess.counters if sess is not None else None,
            gauges=sess.gauges if sess is not None else None,
            hists=sess.histograms if sess is not None else None,
        )
    )
    return 0


def cmd_explain(args) -> int:
    program = _load_flexible(args.file)
    result = _run_op(
        args, "explain", program,
        name=program.name, phase=args.phase, spec=args.spec, lead=args.lead,
        params=_params(args.param), as_json=args.json, verbose=args.verbose,
    )
    print(result.render())
    return result.exit_code


def cmd_fuzz(args) -> int:
    """Differential fuzzing: random nests × random transformations,
    cross-checked against the trace-equivalence oracles; failures are
    shrunk to minimal repros and serialized into the corpus."""
    from repro.fuzz import fuzz_run, known_illegal_case, known_unsound_case

    inject = {}
    if args.inject_illegal:
        inject[0] = known_illegal_case()
    if args.inject_unsound:
        inject[len(inject)] = known_unsound_case()
    session = fuzz_run(
        args.runs,
        args.seed,
        jobs=args.jobs,
        corpus_dir=args.corpus,
        minimize=args.minimize,
        inject=inject or None,
        strict_illegal=args.strict_illegal,
        backends=tuple(args.backend or ()),
        service=args.service or "",
        symbolic=args.symbolic,
    )
    print(session.summary())
    if not session.ok:
        print(f"\n{len(session.divergences)} divergence(s) found:", file=sys.stderr)
        for result in session.divergences:
            print(f"  {result.verdict}: {result.detail}", file=sys.stderr)
            print(f"    case: {result.case.describe()}", file=sys.stderr)
        return 1
    return 0


def cmd_parallel(args) -> int:
    program = _load(args.file)
    layout = Layout(program)
    deps = analyze_dependences(program)
    marks = parallel_loops(layout, IntMatrix.identity(layout.dimension), deps)
    for m in marks:
        tag = "DOALL" if m.is_parallel else f"carries {', '.join(m.carried)}"
        print(f"loop {m.var}: {tag}")
    return 0


def cmd_serve(args) -> int:
    """Run the transformation service daemon (docs/SERVICE.md)."""
    from repro.service.server import serve

    return serve(
        host=args.host,
        port=args.port,
        max_shards=args.shards,
        job_workers=args.job_workers,
        trace_json=args.trace_json,
        tune_dir=args.tune_dir,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Transformations for imperfectly nested loops (SC'96 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # observability flags shared by the pipeline commands
    obsflags = argparse.ArgumentParser(add_help=False)
    obsflags.add_argument(
        "--profile",
        action="store_true",
        help="print a span tree and metrics table to stderr",
    )
    obsflags.add_argument(
        "--trace-json",
        metavar="PATH",
        help="write spans and metrics as JSON lines to PATH",
    )

    # remote-daemon targeting shared by the service-backed commands
    remoteflags = argparse.ArgumentParser(add_help=False)
    remoteflags.add_argument(
        "--remote",
        metavar="URL",
        default=None,
        help="execute against a running `repro serve` daemon at URL "
        "(default: $REPRO_REMOTE; see docs/SERVICE.md)",
    )

    p = sub.add_parser("show", help="print program, layout and instance vectors")
    p.add_argument("file")
    p.set_defaults(fn=cmd_show)

    p = sub.add_parser(
        "deps", help="print the dependence matrix",
        parents=[obsflags, remoteflags],
    )
    p.add_argument("file")
    p.add_argument("--refine", action="store_true", help="value-based refinement")
    p.add_argument("-p", "--param", action="append", help="sample size, e.g. N=8")
    p.set_defaults(fn=cmd_deps)

    p = sub.add_parser(
        "check", help="check a transformation spec for legality",
        parents=[obsflags, remoteflags],
    )
    p.add_argument("file")
    p.add_argument("spec", help='e.g. "permute(I,J); skew(I,J,-1)"')
    p.add_argument(
        "--symbolic",
        action="store_true",
        help="on a Theorem-2 rejection, consult the fractal symbolic "
        "oracle for an equivalence certificate (docs/SYMBOLIC.md)",
    )
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser(
        "transform", help="generate code for a legal spec",
        parents=[obsflags, remoteflags],
    )
    p.add_argument("file")
    p.add_argument("spec")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser(
        "complete", help="complete a partial transformation",
        parents=[obsflags, remoteflags],
    )
    p.add_argument("file")
    p.add_argument("--lead", required=True, help="loop variable to scan outermost")
    p.set_defaults(fn=cmd_complete)

    p = sub.add_parser(
        "run", help="interpret a program", parents=[obsflags, remoteflags]
    )
    p.add_argument("file")
    p.add_argument("-p", "--param", "--params", action="append", dest="param",
                   help="e.g. N=8 or N=8,M=4")
    p.add_argument("--trace", action="store_true")
    p.add_argument(
        "--backend",
        default="reference",
        choices=_BACKEND_CHOICES,
        help="execution backend (see docs/BACKENDS.md)",
    )
    p.add_argument(
        "--tuned",
        action="store_true",
        help="apply the cached best schedule from `repro tune` "
        "(same --params; see docs/AUTOTUNING.md)",
    )
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="tuning cache directory (default: .repro_tune or $REPRO_TUNE_DIR)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "bench",
        help="wall-clock comparison of the execution backends",
        parents=[obsflags],
    )
    p.add_argument("file", help="a .loop file (extension optional) or bundled kernel name")
    p.add_argument("-p", "--param", "--params", action="append", dest="param",
                   help="e.g. N=60 or N=60,M=4")
    p.add_argument(
        "--backend",
        action="append",
        choices=_BACKEND_CHOICES,
        help="backend to time (repeatable; default: all)",
    )
    p.add_argument("--repeat", type=int, default=3, help="best-of-N timing")
    p.add_argument("--json", metavar="PATH", help="also write the table as JSON")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "tune",
        help="autotune: search legal schedules, measure, cache the winner",
        parents=[obsflags, remoteflags],
    )
    p.add_argument("file", help="a .loop file (extension optional) or bundled kernel name")
    p.add_argument("-p", "--param", "--params", action="append", dest="param",
                   help="e.g. N=96 or N=96,M=4 (default: 96 for every param)")
    p.add_argument(
        "--backend",
        default="source-vec",
        choices=_BACKEND_CHOICES,
        help="backend the survivors are measured on (default: source-vec)",
    )
    p.add_argument("--beam", type=int, default=4, help="beam width (default 4)")
    p.add_argument("--depth", type=int, default=2,
                   help="beam-search depth in elementary steps (default 2)")
    p.add_argument("--top-k", type=int, default=3,
                   help="survivors measured with the real backend (default 3)")
    p.add_argument("--repeat", type=int, default=3,
                   help="timing repetitions per measurement round (median; min 3)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="tuning cache directory (default: .repro_tune or $REPRO_TUNE_DIR)")
    p.add_argument("--no-cache", action="store_true",
                   help="neither read nor write the tuning cache")
    p.add_argument("--force", action="store_true",
                   help="re-search even on a cache hit (overwrites the entry)")
    p.add_argument(
        "--structural",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="include distribution/jamming/fusion structural variants",
    )
    p.add_argument(
        "--tile",
        action="store_true",
        help="also enumerate strip-mined (tiled) variants over the "
        "default tile ladder (docs/TILING.md)",
    )
    p.add_argument(
        "--tile-sizes",
        action="append",
        metavar="SIZES",
        help="explicit tile ladder, e.g. 16,32 (repeatable; implies --tile)",
    )
    p.add_argument(
        "--max-candidates",
        type=int,
        default=None,
        metavar="N",
        help="hard cap on enumerated candidates per stage; excess is "
        "truncated with a kind=tune verdict=truncated event "
        "(default 96, or $REPRO_TUNE_MAX)",
    )
    p.add_argument(
        "--cross-check",
        choices=("full", "model"),
        default="full",
        help="equivalence-check measured survivors at the real params "
        "(full) or at model-capped params (model; keeps huge-N tuning "
        "runs affordable, timing still happens at the real params)",
    )
    p.add_argument(
        "--symbolic",
        action="store_true",
        help="appeal Theorem-2 rejections to the fractal symbolic oracle; "
        "certified candidates re-enter the beam marked legality=symbolic "
        "(docs/SYMBOLIC.md)",
    )
    p.add_argument("--json", metavar="PATH", help="also write the table as JSON")
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser("parallel", help="per-loop DOALL verdicts")
    p.add_argument("file")
    p.set_defaults(fn=cmd_parallel)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing of the whole pipeline (see docs/FUZZING.md)",
        parents=[obsflags],
    )
    p.add_argument("--runs", type=int, default=100, help="number of cases")
    p.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="fan the cases out over N worker processes (0 = one per CPU; "
        "the output is identical to a serial run)",
    )
    p.add_argument("--seed", type=int, default=0, help="master seed of the case stream")
    p.add_argument(
        "--corpus",
        default="tests/fuzz_corpus",
        help="directory minimized repros are serialized into "
        "(default: tests/fuzz_corpus)",
    )
    p.add_argument(
        "--minimize",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="shrink failures to minimal repros before serializing",
    )
    p.add_argument(
        "--inject-illegal",
        action="store_true",
        help="replace case 0 with a known-illegal, claimed-legal "
        "transformation — must produce exactly one divergence (harness "
        "self-test)",
    )
    p.add_argument(
        "--strict-illegal",
        action="store_true",
        help="treat rejected-but-equivalent transformations (legality "
        "precision gaps) as divergences",
    )
    p.add_argument(
        "--symbolic",
        action="store_true",
        help="consult the fractal symbolic oracle on every Theorem-2 "
        "rejection; certified schedules are then cross-checked for "
        "output equivalence across backends (docs/SYMBOLIC.md)",
    )
    p.add_argument(
        "--inject-unsound",
        action="store_true",
        help="inject a case whose symbolic certificate is deliberately "
        "fabricated — the differential oracle must flag it (harness "
        "self-test for a lying oracle)",
    )
    p.add_argument(
        "--backend",
        action="append",
        choices=[b for b in _BACKEND_CHOICES if b != "reference"],
        help="also cross-check every legal case's execution against this "
        "backend (repeatable; see docs/BACKENDS.md)",
    )
    p.add_argument(
        "--service",
        metavar="URL",
        default=None,
        help="also cross-check every case's source program against a "
        "running `repro serve` daemon (warm-path oracle; see "
        "docs/SERVICE.md)",
    )
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser(
        "explain",
        help="decision provenance: why each phase accepted or rejected "
        "(see docs/OBSERVABILITY.md)",
        parents=[obsflags, remoteflags],
    )
    p.add_argument("file", help="a .loop file (extension optional) or bundled kernel name")
    p.add_argument(
        "--phase",
        choices=api.EXPLAIN_PHASES,
        default=None,
        help="explain one phase (default: every phase runnable with the "
        "given flags)",
    )
    p.add_argument("--spec", default=None,
                   help='transformation spec for the legality phase, e.g. "permute(I,J)"')
    p.add_argument("--lead", default=None,
                   help="lead loop variable for the complete phase")
    p.add_argument("-p", "--param", "--params", action="append", dest="param",
                   help="e.g. N=96 or N=96,M=4 (tune phase: must match the tune run)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="tuning cache directory (default: .repro_tune or $REPRO_TUNE_DIR)")
    p.add_argument("--json", action="store_true",
                   help="emit the events/ranking as JSON instead of the narrative")
    p.add_argument("--verbose", action="store_true",
                   help="also print the program text")
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser(
        "report", help="full analysis report", parents=[obsflags]
    )
    p.add_argument("file")
    p.add_argument("-p", "--param", "--params", action="append", dest="param",
                   help="e.g. N=16 or N=16,M=4")
    p.add_argument(
        "--backend",
        default=None,
        choices=_BACKEND_CHOICES,
        help="rank the loop-order search by measured wall clock on this "
        "backend instead of simulated cache misses",
    )
    p.add_argument(
        "--tuned",
        action="store_true",
        help="analyze the cached tuned schedule instead of the original "
        "(same --params as the `repro tune` run)",
    )
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="tuning cache directory (default: .repro_tune or $REPRO_TUNE_DIR)")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser(
        "serve",
        help="run the transformation service daemon (docs/SERVICE.md)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1; the daemon is "
                   "designed for local-socket use)")
    p.add_argument("--port", type=int, default=7521,
                   help="TCP port (default 7521; 0 picks a free port)")
    p.add_argument("--shards", type=int, default=None, metavar="N",
                   help="max warm program shards before LRU eviction "
                   "(default 64, or $REPRO_SERVICE_SHARDS)")
    p.add_argument("--job-workers", type=int, default=2, metavar="N",
                   help="async job-queue worker threads (default 2)")
    p.add_argument("--trace-json", metavar="PATH",
                   help="stream the daemon's spans/events/metrics as JSON "
                   "lines to PATH (flushed on SIGTERM/SIGINT)")
    p.add_argument("--tune-dir", default=None, metavar="DIR",
                   help="the daemon's tuning cache directory (default: "
                   ".repro_tune or $REPRO_TUNE_DIR)")
    p.set_defaults(fn=cmd_serve)

    args = parser.parse_args(argv)
    profile = getattr(args, "profile", False)
    trace_json = getattr(args, "trace_json", None)
    # `report` always collects metrics for its metrics section; the
    # other commands only pay for observability when asked (`explain`
    # collects its own decision events).  `serve` manages its own
    # long-lived session (including the trace sink) inside the daemon.
    want_obs = (
        profile or trace_json is not None or args.command == "report"
    ) and args.command != "serve"

    mem = None
    sess = None
    try:
        if want_obs and obs.current_session() is None:
            mem = obs.MemorySink()
            sinks: list = [mem]
            if trace_json is not None:
                sinks.append(obs.JsonlSink(trace_json))
            sess = obs.install(*sinks)
        try:
            from repro.obs.lifecycle import flush_on_signals

            with flush_on_signals():
                with obs.span(f"cli.{args.command}", file=getattr(args, "file", None)):
                    rc = args.fn(args)
            # a reader that closed stdout early fails this flush, not
            # the one at interpreter exit
            sys.stdout.flush()
            return rc
        finally:
            if sess is not None:
                obs.uninstall()
                if profile:
                    print(
                        obs.render_report(
                            mem.roots, sess.counters, sess.gauges, sess.histograms
                        ),
                        file=sys.stderr,
                    )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # an illegal transformation rejected as an error is a different
        # failure class than a parse/analysis error: scripts get exit 3,
        # locally via LegalityError, remotely via the relayed error_kind
        if isinstance(exc, LegalityError) or (
            getattr(exc, "kind", None) == "LegalityError"
        ):
            return EXIT_ILLEGAL_TRANSFORM
        return 2
    except BrokenPipeError:
        # `repro deps ... | head -1`: the output nobody reads is not an
        # error; stdout goes to devnull so the exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
