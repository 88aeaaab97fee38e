"""The performance trend: ``BENCH_history.jsonl``, fed by ``ledger/run.py``.

The ledger (``BENCHMARK.json`` -> ``ledger/``) is the one place a
performance number comes from; this file keeps its results over time,
one row per PR, in the ledger's own metric vocabulary::

    python3 ledger/run.py --traced         # writes ledger/out/
    python benchmarks/history.py append    # [OUT_DIR [HISTORY]]: one row from ledger/out/
    python benchmarks/history.py check     # [HISTORY]: last row vs the rows before it

A row is ``{"schema": 2, "sha": "<HEAD of OUT_DIR's checkout>[+dirty]",
"created": <unix s>, "python": "3.x.y", "metrics": {"<workload>/<metric>": n}}``:
every end-to-end metric of every workload (``<workload>.trace0.json``) plus
the per-layer metrics that read non-zero in the traced run (``.trace1.json``).
``check`` gates the last row against the **rolling median** of the rows before
it; which way is worse is each metric's ``better`` in ``BENCHMARK.json``.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HISTORY = ROOT / "BENCH_history.jsonl"
SCHEMA = 2
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in _SPEC["workloads"]]
BETTER = {m["name"]: m["better"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}

#: How far past the rolling median of its prior rows a metric may sit: looser
#: than jitter, tight enough for a creep that stays inside every PR's bound.
TOLERANCE = 0.25
#: Only this many latest prior rows count: an older era (machine, algorithm) ages out.
WINDOW = 8
#: With fewer prior rows a metric is reported, not gated (bootstrap).
MIN_PRIOR = 2


def git_sha(cwd: Path = ROOT) -> str:
    """HEAD of the checkout ``cwd`` sits in, ``+dirty`` appended when its
    work tree differs from HEAD; ``"unknown"`` outside a git checkout."""
    def git(*argv):
        try:
            out = subprocess.run(["git", *argv], cwd=cwd, capture_output=True, text=True)
        except OSError:  # no git on this machine
            return ""
        return out.stdout.strip() if out.returncode == 0 else ""

    sha = git("rev-parse", "HEAD")
    return sha + ("+dirty" if git("status", "--porcelain") else "") if sha else "unknown"


def ledger_metrics(out_dir: str | Path) -> dict[str, float]:
    """``{"<workload>/<metric>": value}`` from one ``ledger/run.py --traced``."""
    metrics: dict[str, float] = {}
    for workload in WORKLOADS:
        untraced, traced = (
            json.loads((Path(out_dir) / f"{workload}.trace{t}.json").read_text()) for t in (0, 1))
        for name, value in untraced["end_to_end"].items():
            metrics[f"{workload}/{name}"] = value
        for name, value in traced["per_layer"].items():
            if value:  # a layer the workload never calls reads 0
                metrics[f"{workload}/{name}"] = value
    return metrics


def append(out_dir: str | Path = ROOT / "ledger" / "out", path: str | Path = HISTORY) -> dict:
    """Append one row for the ledger results in ``out_dir``."""
    row = {"schema": SCHEMA, "sha": git_sha(Path(out_dir)), "created": time.time(),
           "python": sys.version.split()[0], "metrics": ledger_metrics(out_dir)}
    with Path(path).open("a") as f:
        f.write(json.dumps(row, sort_keys=True) + "\n")
    return row


def load_history(path: str | Path) -> list[dict]:
    """The well-formed rows of this schema, in file order; anything else
    (a mangled or old-vocabulary line) is skipped, not fatal."""
    rows = []
    for line in Path(path).read_text().splitlines() if Path(path).exists() else ():
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            continue
        if (isinstance(row, dict) and row.get("schema") == SCHEMA
                and isinstance(row.get("metrics"), dict)):
            rows.append(row)
    return rows


def trend_failures(fresh: dict, prior_rows: list[dict]) -> tuple[list[str], list[str]]:
    """Gate row ``fresh`` against the rolling median of ``prior_rows``:
    ``(failures, report)``, the report naming every metric either way."""
    failures, report = [], []
    for name, value in sorted(fresh["metrics"].items()):
        direction = BETTER.get(name.partition("/")[2])
        if direction is None or not isinstance(value, (int, float)):
            continue
        prior = [row["metrics"][name] for row in prior_rows
                 if isinstance(row["metrics"].get(name), (int, float))][-WINDOW:]
        if len(prior) < MIN_PRIOR:
            report.append(f"  [  bootstrap] {name}: {value:.6g} ({len(prior)} prior row(s))")
            continue
        med = statistics.median(prior)
        if med <= 0:
            report.append(f"  [    skipped] {name}: rolling median is {med:.6g}")
            continue
        if direction == "lower":
            bad, side = value > med * (1 + TOLERANCE), "above"
        else:
            bad, side = value < med * (1 - TOLERANCE), "below"
        line = (f"{name}: {value:.6g} vs rolling median {med:.6g} "
                f"over {len(prior)} row(s) ({value / med:.2f}x)")
        report.append(f"  [{'TREND  FAIL' if bad else '         ok'}] {line}")
        if bad:
            failures.append(f"{line} — more than {TOLERANCE:.0%} {side} the trend")
    return failures, report


def check(path: str | Path = HISTORY) -> int:
    """The trend gate on the last row of ``path``, as an exit status."""
    rows = load_history(path)
    if not rows:
        print(f"error: no row of schema {SCHEMA} in {path}", file=sys.stderr)
        return 2
    failures, report = trend_failures(rows[-1], rows[:-1])
    print(f"trend of {rows[-1]['sha']} against {len(rows) - 1} earlier row(s) in {path}:")
    print("\n".join(report))
    for failure in failures:
        print(f"TREND FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    command, *paths = (sys.argv[1:] if argv is None else argv) or [""]
    if command == "append" and len(paths) <= 2:
        row = append(*paths)
        print(f"appended {row['sha']}: {len(row['metrics'])} metrics")
        return 0
    if command == "check" and len(paths) <= 1:
        return check(*paths)
    print("usage: history.py append [OUT_DIR [HISTORY]] | check [HISTORY]", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
