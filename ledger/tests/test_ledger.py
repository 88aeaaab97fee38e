"""Self-tests of the benchmark: ``python -m pytest ledger/tests -q``
from the repo root (outside tier-1's ``testpaths`` on purpose)."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from ledger import metrics, zoo  # noqa: E402
from ledger.bench import NULL, Recorder  # noqa: E402
from ledger.trace import Tracer, layer_totals, per_round_ms, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_names_what_the_runner_emits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(metrics.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
    assert declared == metrics.END_TO_END
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in SPEC["end_to_end"])
    declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert declared == metrics.PER_LAYER
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    names = [*metrics.WORKLOADS, *metrics.END_TO_END, *metrics.PER_LAYER]
    assert len(set(names)) == len(names) and all(NAME.fullmatch(n) for n in names)
    assert len(metrics.WORKLOADS) <= 8
    assert len(metrics.END_TO_END) <= 16 and len(metrics.PER_LAYER) <= 128


def test_bounds_are_within_the_contract_and_setup_has_the_largest():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= SPEC["run_seconds"] <= 60


def test_every_pinned_verdict_belongs_to_a_zoo_spec_and_back():
    pinned = json.loads((ROOT / "ledger" / "expected.json").read_text())["verdicts"]
    for name, kernel in zoo.KERNELS.items():
        specs = set(kernel.legal) | ({kernel.illegal} if kernel.illegal else set())
        assert set(pinned[name]) == specs
        assert all(pinned[name][s] == "legal" for s in kernel.legal)
        if kernel.illegal:
            assert pinned[name][kernel.illegal] != "legal"


def test_same_seed_same_spec_draw_other_seed_another():
    assert zoo.draw_specs(7) == zoo.draw_specs(7)
    assert any(zoo.draw_specs(7) != zoo.draw_specs(s) for s in range(8, 12))
    assert zoo.shuffled(7, zoo.KERNELS) == zoo.shuffled(7, zoo.KERNELS)
    assert sorted(zoo.shuffled(7, zoo.KERNELS)) == sorted(zoo.KERNELS)


def request_schedule(seed: int) -> list:
    from ledger.workloads.service_warm import Workload

    w = Workload(SimpleNamespace(seed=seed, rec=Recorder(), tracer=NULL, trace=False))
    w.build_pool()
    return [(name, op, args) for name, op, args, _ in w.chunk() + w.chunk()]


def test_same_seed_same_request_schedule_other_seed_another():
    first = request_schedule(11)
    assert first == request_schedule(11)
    assert first != request_schedule(12)
    novel = [r for r in first if r[1] != "run" and "skew" in r[2].get("spec", "")
             and r[2]["spec"] not in {k for ker in zoo.KERNELS.values() for k in ker.legal}]
    assert len({json.dumps(r) for r in novel}) == len(novel)  # every novel request is fresh


def span(id, parent, name, start, end, item="x", round=0):
    return {"id": id, "parent": parent, "workload": "w", "item": item, "name": name,
            "round": round, "start_ns": start, "end_ns": end}


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        span(1, None, "item", 0, 100),
        span(2, 1, "a", 10, 40),
        span(3, 1, "b", 30, 60),    # overlaps a: the union 10..60 is covered once
        span(4, 1, "c", 90, 120),   # clipped to its parent's end
        span(5, 2, "d", 15, 20),
    ]
    selfs = self_times(spans)
    assert selfs == {1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5}
    totals = layer_totals(spans)
    assert totals["a"]["calls"] == 1 and totals["a"]["self_ms"] == 25 / 1e6


def test_per_round_ms_sums_item_medians_and_skips_setup():
    ms = 1_000_000
    spans = [
        span(1, None, "a", 0, 2 * ms, item="x", round=0),
        span(2, None, "a", 0, 4 * ms, item="x", round=1),
        span(3, None, "a", 0, 6 * ms, item="x", round=2),
        span(4, None, "a", 0, 1 * ms, item="y", round=0),
        span(5, None, "a", 0, 1 * ms, item="y", round=0),   # two calls in one round add up
        span(6, None, "a", 0, 50 * ms, item="x", round=None),
    ]
    assert per_round_ms(spans, "a") == 4.0 + 2.0


def test_tracer_nests_spans_per_thread():
    tr = Tracer("w")
    with tr.span("outer", "i"):
        with tr.span("inner", "i"):
            pass
    with tr.span("next", "i"):
        pass
    assert [(s["name"], s["parent"]) for s in tr.spans] == [
        ("outer", None), ("inner", 1), ("next", None)]
    assert all(s["end_ns"] >= s["start_ns"] for s in tr.spans)


def test_recorder_counts_failures_and_keeps_traced_samples_apart():
    rec = Recorder()
    rec.op("a", 1.0)
    rec.op("a", 3.0, ok=False, why="wrong")
    rec.traced = True
    rec.op("a", 10.0)
    assert (rec.attempted, rec.failed) == (3, 1)
    assert rec.items_total_ms(False) == 2.0 and rec.items_total_ms(True) == 10.0
    assert metrics.percentile([1, 2, 3, 4], 50) == 2 and metrics.quartiles([5.0]) == (5.0, 5.0)


def run_benchmark(root: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "ledger/run.py", "--workload", "compile_cold", "--seed", "3",
         "--seconds", "1", "--trace", "0", *extra],
        cwd=root, capture_output=True, text=True, timeout=120)


def test_compile_cold_smoke_prints_the_contract_line(tmp_path):
    t0 = time.perf_counter()
    proc = run_benchmark(ROOT, "--out", str(tmp_path))
    assert time.perf_counter() - t0 < 20
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        k: unit for k, (unit, _) in metrics.END_TO_END.items()}
    assert all(v["value"] > 0 for v in last["metrics"].values())
    assert not list(tmp_path.glob("run-*"))  # the scratch directory is gone


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "ledger", tmp_path / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_benchmark(tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
