"""The ledger-fed performance trend (benchmarks/history.py): rows built
from ``ledger/out/``, the rolling-median gate, and the guarantee that a
benchmark session writes nothing."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from benchmarks.history import (  # noqa: E402
    MIN_PRIOR, SCHEMA, TOLERANCE, WINDOW, append, check, git_sha,
    ledger_metrics, load_history, main, trend_failures,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]

LOWER = "compile_cold/item_geomean_ms"  # better: lower
HIGHER = "service_warm/ops_per_s"  # better: higher


def write_ledger_out(out_dir, **overrides):
    """A ``ledger/out/`` look-alike: every workload's untraced and traced
    result file, every end-to-end metric at 10.0 unless overridden by
    ``<workload>/<metric>``, one live and one idle per-layer metric."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for w in WORKLOADS:
        end_to_end = {m: overrides.get(f"{w}/{m}", 10.0) for m in END_TO_END}
        per_layer = {"polyhedra.fm_queries": 7.0, "import.numpy_ms": 0.0}
        (out_dir / f"{w}.trace0.json").write_text(
            json.dumps({"workload": w, "trace": 0, "end_to_end": end_to_end}))
        (out_dir / f"{w}.trace1.json").write_text(
            json.dumps({"workload": w, "trace": 1, "end_to_end": end_to_end,
                        "per_layer": per_layer}))
    return out_dir


def row(**metrics):
    return {"schema": SCHEMA, "sha": "s", "created": 0.0, "python": "3", "metrics": metrics}


def rows_at(name, *values):
    return [row(**{name: v}) for v in values]


class TestSnapshotRows:
    def test_metrics_flattening(self, tmp_path):
        metrics = ledger_metrics(write_ledger_out(tmp_path, **{LOWER: 17.8}))
        assert metrics[LOWER] == 17.8
        # exactly the 30 <workload>/<end-to-end metric> names of BENCHMARK.json ...
        assert {k for k in metrics if k.partition("/")[2] in END_TO_END} == {
            f"{w}/{m}" for w in WORKLOADS for m in END_TO_END
        }
        assert len(WORKLOADS) * len(END_TO_END) == 30
        # ... plus the per-layer metrics that read non-zero, and only those
        assert metrics["kernel_run/polyhedra.fm_queries"] == 7.0
        assert not any(k.endswith("import.numpy_ms") for k in metrics)
        assert len(metrics) == 30 + len(WORKLOADS)

    def test_snapshot_row_schema(self, tmp_path):
        history = tmp_path / "h.jsonl"
        appended = append(write_ledger_out(tmp_path / "out"), history)
        assert appended["schema"] == SCHEMA
        assert appended["sha"] == "unknown"  # tmp_path is no git checkout
        assert appended["created"] > 0 and appended["python"]
        assert load_history(history) == [appended]

    def test_missing_result_file_is_an_error(self, tmp_path):
        out = write_ledger_out(tmp_path / "out")
        (out / "tune_search.trace1.json").unlink()
        with pytest.raises(FileNotFoundError):
            append(out, tmp_path / "h.jsonl")
        assert not (tmp_path / "h.jsonl").exists()

    def test_git_sha_in_this_repo(self):
        sha = git_sha()
        assert sha == "unknown" or (
            len(sha.removesuffix("+dirty")) == 40
            and all(c in "0123456789abcdef" for c in sha.removesuffix("+dirty"))
        )

    def test_git_sha_outside_repo(self, tmp_path):
        assert git_sha(tmp_path) == "unknown"


class TestLedgerIo:
    def test_append_and_load_round_trip(self, tmp_path):
        history = tmp_path / "BENCH_history.jsonl"
        first = append(write_ledger_out(tmp_path / "a", **{LOWER: 1.0}), history)
        second = append(write_ledger_out(tmp_path / "b", **{LOWER: 2.0}), history)
        rows = load_history(history)
        assert [r["metrics"][LOWER] for r in rows] == [1.0, 2.0]
        assert rows == [first, second]
        for line in history.read_text().splitlines():
            json.loads(line)  # every line is independently parseable

    def test_malformed_lines_skipped(self, tmp_path):
        history = tmp_path / "h.jsonl"
        foreign = {"schema": 1, "sha": "old", "metrics": {"tune:cholesky:speedup": 1.0}}
        lines = [json.dumps(row(**{LOWER: 1.0})), "{truncated", "42", "",
                 json.dumps(foreign), json.dumps({"schema": SCHEMA, "metrics": 5}),
                 json.dumps(row(**{LOWER: 2.0}))]
        history.write_text("\n".join(lines) + "\n")
        assert [r["metrics"][LOWER] for r in load_history(history)] == [1.0, 2.0]

    def test_missing_file_is_empty(self, tmp_path):
        assert load_history(tmp_path / "nope.jsonl") == []


class TestTrendFailures:
    def test_bootstrap_never_fails(self):
        fails, report = trend_failures(
            row(**{LOWER: 9.9e9}), rows_at(LOWER, *[1.0] * (MIN_PRIOR - 1)))
        assert not fails
        assert any("bootstrap" in line for line in report)

    def test_injected_2x_seconds_regression_fails(self):
        # a planted 30% regression on a `better: lower` metric, and a 2x one
        for factor in (1.3, 2.0):
            fails, report = trend_failures(
                row(**{LOWER: 10.0 * factor}), rows_at(LOWER, 10.0, 10.0, 10.0))
            assert [f for f in fails if LOWER in f and "above the trend" in f], factor
            assert any("TREND  FAIL" in line for line in report)

    def test_speedup_drop_fails(self):
        # direction comes from BENCHMARK.json's `better`: the same +30% move
        # that fails a lower-is-better metric passes on ops_per_s ...
        prior = rows_at(HIGHER, 400.0, 400.0, 400.0)
        assert not trend_failures(row(**{HIGHER: 520.0}), prior)[0]
        # ... and its inverse fails
        fails, _ = trend_failures(row(**{HIGHER: 280.0}), prior)
        assert [f for f in fails if HIGHER in f and "below the trend" in f]
        # per-layer metrics carry a direction too
        speedup = "tune_search/tune.speedup_geomean"
        fails, _ = trend_failures(row(**{speedup: 1.0}), rows_at(speedup, 1.76, 1.76))
        assert [f for f in fails if speedup in f]

    def test_unknown_metric_is_not_gated(self):
        fails, report = trend_failures(
            row(**{"compile_cold/no.such_metric": 99.0}),
            rows_at("compile_cold/no.such_metric", 1.0, 1.0, 1.0))
        assert not fails and not report

    def test_improvement_passes(self):
        fails, _ = trend_failures(row(**{LOWER: 5.0}), rows_at(LOWER, 10.0, 10.0, 10.0))
        assert not fails

    def test_within_tolerance_passes(self):
        just_inside = 10.0 * (1 + TOLERANCE) - 0.1
        fails, report = trend_failures(
            row(**{LOWER: just_inside}), rows_at(LOWER, 10.0, 10.0, 10.0))
        assert not fails
        assert any("[         ok]" in line for line in report)

    def test_rolling_window_ages_out_old_era(self):
        # ancient slow rows fall outside the window: the median comes
        # from the recent fast rows, so a return to the slow value fails
        prior = rows_at(LOWER, *[80.0] * 20, *[10.0] * WINDOW)
        fails, _ = trend_failures(row(**{LOWER: 80.0}), prior)
        assert [f for f in fails if LOWER in f]

    def test_median_robust_to_one_outlier(self):
        prior = rows_at(LOWER, 10.0, 500.0, 10.0)  # one lucky/cursed row
        fails, _ = trend_failures(row(**{LOWER: 11.0}), prior)
        assert not fails

    def test_nonpositive_median_is_skipped(self):
        # obs.trace_overhead_pct can read negative; a ratio to it means nothing
        name = "cli_cold/obs.trace_overhead_pct"
        fails, report = trend_failures(row(**{name: 3.0}), rows_at(name, -1.0, -2.0))
        assert not fails
        assert any("skipped" in line for line in report)


def write_history(path, name, *values):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows_at(name, *values)))
    return path


class TestTrendGate:
    def test_excludes_own_trailing_row(self, tmp_path, capsys):
        # the row under test is the file's last; it must not pull its own
        # median towards itself
        history = write_history(tmp_path / "h.jsonl", LOWER, 10.0, 10.0, 50.0)
        assert check(history) == 1
        assert LOWER in capsys.readouterr().err
        # with one prior row left the metric bootstraps instead of passing
        # or failing silently
        short = write_history(tmp_path / "short.jsonl", LOWER, 10.0, 50.0)
        assert check(short) == 0
        assert "bootstrap" in capsys.readouterr().out


class TestCompareCliTrend:
    """``python benchmarks/history.py check`` as CI runs it."""

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        history = write_history(tmp_path / "h.jsonl", LOWER, 10.0, 10.0, 10.0, 13.0)
        assert main(["check", str(history)]) == 1
        out = capsys.readouterr()
        assert "TREND  FAIL" in out.out
        assert "TREND FAIL" in out.err

    def test_steady_trend_passes(self, tmp_path, capsys):
        history = write_history(tmp_path / "h.jsonl", LOWER, 10.0, 10.0, 10.0, 10.1)
        assert main(["check", str(history)]) == 0
        assert "[         ok]" in capsys.readouterr().out

    def test_paths_only(self, tmp_path, capsys):
        assert main([]) == 2
        assert main(["check", "a", "b"]) == 2
        assert main(["check", "--tolerance", "0.5"]) == 2  # no such file, no such flag
        assert main(["check", str(tmp_path / "nope.jsonl")]) == 2
        history = tmp_path / "h.jsonl"
        assert main(["append", str(write_ledger_out(tmp_path / "out")), str(history)]) == 0
        assert len(load_history(history)) == 1

    def test_committed_history_is_green(self):
        assert check(ROOT / "BENCH_history.jsonl") == 0
        last = load_history(ROOT / "BENCH_history.jsonl")[-1]
        assert {f"{w}/{m}" for w in WORKLOADS for m in END_TO_END} <= set(last["metrics"])


def test_benchmark_session_writes_nothing():
    """`pytest benchmarks/...` only asserts: no result file appears and
    the trend file is byte-identical afterwards."""
    pytest.importorskip("pytest_benchmark")
    history = ROOT / "BENCH_history.jsonl"
    before = history.read_bytes()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks/bench_instance.py",
         "--benchmark-disable", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert not (ROOT / "BENCH_result.json").exists()
    assert history.read_bytes() == before
