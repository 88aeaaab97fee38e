#!/usr/bin/env python3
"""The repo's benchmark: end-to-end numbers a user sees and the
per-layer numbers behind them.  See ledger/README.md.

    python3 ledger/run.py --workload W --seed S --seconds T --trace 0|1
    python3 ledger/run.py [--seed S] [--traced] [--out DIR]   # all five
    python3 ledger/run.py --check-stability [--runs N]

Each workload runs in a child process of its own (``ledger.bench``)
under a scrubbed environment.  The last line printed is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# import ledger.* as a package: with this directory itself on the path,
# ledger/trace.py would shadow the standard library's trace module
sys.path = [str(ROOT)] + [p for p in sys.path if Path(p or ".").resolve() != HERE]

from ledger import metrics  # noqa: E402

SRC = ROOT / "src"
DEFAULT_SEED = 1996
CHILD_TIMEOUT_S = 170


def child_env(tmp: Path) -> dict[str, str]:
    """What every child inherits: bytecode goes to (and comes from) a
    private cache under ``tmp`` — the sandbox exports
    PYTHONDONTWRITEBYTECODE, which no installed user runs with — no
    ``REPRO_*`` knob leaks in, hashing is fixed and BLAS stays on one
    thread."""
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE" and not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(tmp / "pycache"), PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    return env


def compile_bytecode(env: dict[str, str]) -> None:
    jobs = str(min(2, os.cpu_count() or 1))
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "-j", jobs, str(SRC)],
        env=env, check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)


def import_layer(env: dict[str, str]) -> dict[str, float]:
    """The import layer, from ``-X importtime`` on a warm bytecode cache
    (cumulative microseconds per module, top-level imports only)."""
    def wall_ms(*argv):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], env=env, check=True,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        return (time.perf_counter() - t0) * 1e3, proc.stderr

    startup = min(wall_ms("-c", "pass")[0] for _ in range(5))
    _, report = wall_ms("-X", "importtime", "-c", "import repro.cli")
    cumulative: dict[str, float] = {}
    for line in report.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)", line)
        if m:
            cumulative.setdefault(m.group(2), int(m.group(1)) / 1e3)
    return {
        "import.python_startup_ms": startup,
        "import.repro_cli_ms": cumulative["repro.cli"],
        "import.numpy_ms": cumulative.get("numpy", 0.0),
        "import.networkx_ms": cumulative.get("networkx", 0.0),
        "import.modules_loaded": len(cumulative),
    }


def run_one(workload: str, seed: int, seconds: float, trace: int, out: Path) -> dict:
    """Build, run one workload in its child, and return its result with
    every metric of the requested kind filled in."""
    out.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=out))
    try:
        env = child_env(tmp)
        t0 = time.perf_counter()
        compile_bytecode(env)
        build_s = time.perf_counter() - t0
        argv = [sys.executable, "-m", "ledger.bench", "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                "--tmp", str(tmp)]
        if trace:
            argv += ["--trace-out", str(out / f"{workload}.trace.jsonl")]
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0:
            raise SystemExit(f"ledger: workload {workload} exited with {proc.returncode}")
        result = json.loads(stdout.strip().splitlines()[-1])
        result["build_s"] = build_s
        result["end_to_end"]["setup_s"] += build_s
        if trace:
            layer = {name: 0.0 for name in metrics.PER_LAYER}
            layer.update(result["per_layer"])
            layer.update(import_layer(env))
            if workload == "cli_cold":
                start = layer["import.python_startup_ms"] + layer["import.repro_cli_ms"]
                layer["cli.op_ms"] = sum(
                    max(0.0, row["median_ms"] - start) for row in result["traced_items"].values())
            result["per_layer"] = layer
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (out / f"{workload}.trace{trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def reported(result: dict) -> tuple[dict, dict]:
    """The metrics a run reports — per-layer if traced, else end-to-end —
    and their ``name -> (unit, better)`` table."""
    if result["trace"]:
        return result["per_layer"], metrics.PER_LAYER
    return result["end_to_end"], metrics.END_TO_END


def driver_line(result: dict) -> str:
    values, table = reported(result)
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": table[name][0]} for name in table},
    })


def report(result: dict) -> None:
    """Every metric by name with its unit, every timing with its n."""
    w = result["workload"]
    print(f"== {w}  seed={result['seed']}  trace={result['trace']}  "
          f"rounds={result['rounds']}  ops attempted={result['attempted']} "
          f"failed={result['failed']}")
    for why in result["failures"]:
        print(f"   FAILED {why}")
    print(f"   {'item':<28}{'n':>6}{'median ms':>12}{'q1':>12}{'q3':>12}")
    for item, row in result["items"].items():
        print(f"   {item:<28}{row['n']:>6}{row['median_ms']:>12.3f}"
              f"{row['q1_ms']:>12.3f}{row['q3_ms']:>12.3f}")
    values, table = reported(result)
    for name, (unit, _) in table.items():
        print(f"   {name:<34}{values[name]:>14.4f} {unit}")
    if result["trace"]:
        print(f"   {'span':<30}{'calls':>8}{'total ms':>12}{'self ms':>12}")
        for name, row in sorted(result["spans"].items()):
            print(f"   {name:<30}{row['calls']:>8}{row['total_ms']:>12.2f}{row['self_ms']:>12.2f}")


def check_stability(args, bounds: dict[str, float]) -> int:
    """What the driver does: two sets of ``--runs`` untraced runs per
    workload, each run with another seed.  Every spread (interquartile
    distance over median) must stay within the metric's bound, and no
    second median may be worse than the first by more than the bound."""
    bad = 0
    for w in args.workloads:
        sets = []
        for s in range(2):
            runs = [run_one(w, args.seed + s * args.runs + i, args.seconds, 0, args.out)
                    for i in range(args.runs)]
            bad += sum(r["failed"] for r in runs)
            sets.append(runs)
        print(f"== {w}: two sets of {args.runs} runs")
        print(f"   {'metric':<26}{'median 1':>12}{'median 2':>12}{'worse by':>10}"
              f"{'spread 1':>10}{'spread 2':>10}{'bound':>8}")
        for name, (_, better) in metrics.END_TO_END.items():
            cols = [[r["end_to_end"][name] for r in runs] for runs in sets]
            m1, m2 = (metrics.median(c) for c in cols)
            worse = (m2 - m1) / m1 * (1 if better == "lower" else -1)
            spreads = [metrics.spread(c) for c in cols]
            ok = worse <= bounds[name] and (name == "setup_s" or max(spreads) <= bounds[name])
            bad += not ok
            print(f"   {name:<26}{m1:>12.4f}{m2:>12.4f}{worse:>10.2%}{spreads[0]:>10.2%}"
                  f"{spreads[1]:>10.2%}{bounds[name]:>8.0%}{'' if ok else '  <-- outside'}")
    return 1 if bad else 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=metrics.WORKLOADS, help="default: all five")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_true",
                    help="after the untraced run, repeat each workload traced")
    ap.add_argument("--out", type=Path, default=ROOT / "ledger" / "out")
    ap.add_argument("--check-stability", action="store_true")
    ap.add_argument("--runs", type=int, default=10, help="runs per set of --check-stability")
    args = ap.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"ledger: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    args.out = args.out.resolve()
    args.workloads = [args.workload] if args.workload else list(metrics.WORKLOADS)
    if args.check_stability:
        return check_stability(args, {m["name"]: m["bound"] for m in spec["end_to_end"]})
    for w in args.workloads:
        for trace in ((args.trace, 1) if args.traced and not args.trace else (args.trace,)):
            result = run_one(w, args.seed, args.seconds, trace, args.out)
            report(result)
            print(driver_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
