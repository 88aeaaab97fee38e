"""The ``fuzz --jobs`` fan-out: helper semantics, failure handling,
worker-metric merging, and serial == parallel fuzz runs."""

import os

import pytest

from repro import obs
from repro.polyhedra import engine
from repro.util.parallel_exec import (
    capture_counters, chunk_round_robin, map_in_processes, merge_metrics,
    resolve_jobs,
)


# -- helpers ----------------------------------------------------------------


def _square(x):  # top-level: must be picklable for the process pool
    return x * x


def _log_then_fail_on_3(task):
    """Append the task's index to a shared log file, then raise on task 3:
    the log counts calls across worker processes."""
    log, index = task
    with open(log, "a") as f:
        f.write(f"{index}\n")
    if index == 3:
        raise ValueError(f"task {index} failed")
    return index


class TestResolveJobs:
    def test_none_is_serial(self):
        assert resolve_jobs(None) == 1

    def test_explicit_count(self):
        assert resolve_jobs(3) == 3

    def test_zero_means_all_cpus(self):
        assert resolve_jobs(0) == max(1, os.cpu_count() or 1)
        assert resolve_jobs(-2) == max(1, os.cpu_count() or 1)


class TestChunkRoundRobin:
    def test_partitions_everything_once(self):
        chunks = chunk_round_robin(10, 3)
        flat = sorted(i for c in chunks for i in c)
        assert flat == list(range(10))

    def test_drops_empty_hands(self):
        assert chunk_round_robin(2, 5) == [[0], [1]]

    def test_zero_tasks(self):
        assert chunk_round_robin(0, 4) == []


class TestMaps:
    def test_processes_preserve_order(self):
        assert map_in_processes(_square, list(range(20)), jobs=2) == [
            i * i for i in range(20)
        ]

    def test_small_input_stays_serial(self):
        assert map_in_processes(_square, [3], jobs=8) == [9]


class TestFailures:
    def test_raising_task_runs_once_and_propagates(self, tmp_path):
        log = tmp_path / "calls"
        tasks = [(str(log), i) for i in range(6)]
        with obs.session() as sess:
            with pytest.raises(ValueError, match="task 3 failed"):
                map_in_processes(_log_then_fail_on_3, tasks, jobs=2)
        calls = log.read_text().split()
        assert "3" in calls
        assert len(calls) == len(set(calls)), calls  # no task ran twice
        assert "parallel.process_pool_fallbacks" not in sess.counters

    def test_pool_that_cannot_start_falls_back_to_serial(self, monkeypatch):
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise OSError("no semaphores here")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        with obs.session() as sess:
            assert map_in_processes(_square, [1, 2, 3], jobs=2) == [1, 4, 9]
        assert sess.counters["parallel.process_pool_fallbacks"] == 1


class TestCaptureCounters:
    def test_without_outer_session(self):
        assert obs.current_session() is None
        with capture_counters() as cap:
            obs.counter("t.example", 3)
        assert cap.metrics["counters"] == {"t.example": 3}
        assert obs.current_session() is None

    def test_with_outer_session_reports_delta_only(self):
        with obs.session() as sess:
            obs.counter("t.example", 5)
            with capture_counters() as cap:
                obs.counter("t.example", 2)
            assert cap.metrics["counters"] == {"t.example": 2}
            merge_metrics(cap.metrics)
            assert sess.counters["t.example"] == 9  # 5 + 2 + merged 2


def _emit_fixed_metrics(task):
    """Process-pool worker with a deterministic metric footprint: the
    values depend only on the task index, never on timing."""
    index, reps = task
    with capture_counters() as cap:
        for k in range(reps):
            obs.counter("t.work", 1)
            obs.histogram("t.latency_ns", 100 * (index + 1) + k)
        obs.gauge("t.size", reps)
    return index, cap.metrics


class TestCaptureMetrics:
    def test_metrics_payload_bundles_all_three(self):
        with obs.session():
            with capture_counters() as cap:
                obs.counter("t.c", 2)
                obs.gauge("t.g", 7.5)
                obs.histogram("t.h", 64)
        assert cap.metrics["counters"] == {"t.c": 2}
        assert cap.metrics["gauges"] == {"t.g": 7.5}
        h = cap.metrics["histograms"]["t.h"]
        assert h["count"] == 1 and h["buckets"] == {"7": 1}

    def test_histogram_delta_excludes_prior_samples(self):
        with obs.session() as sess:
            obs.histogram("t.h", 1)
            with capture_counters() as cap:
                obs.histogram("t.h", 1)
                obs.histogram("t.h", 1024)
            delta = cap.metrics["histograms"]["t.h"]
            assert delta["count"] == 2
            assert delta["buckets"] == {"1": 1, "11": 1}
            assert sess.histograms["t.h"].count == 3

    def test_unchanged_metrics_not_shipped(self):
        with obs.session():
            obs.counter("t.before", 1)
            obs.gauge("t.g", 5)
            obs.histogram("t.h", 9)
            with capture_counters() as cap:
                obs.gauge("t.g", 5)  # rewritten with the same value
        assert cap.metrics == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_merge_metrics_reconstructs_serial_state(self):
        # the acceptance property: run the same deterministic workload
        # serially and via worker payload merging; every counter, gauge
        # and histogram bucket must come out identical
        tasks = [(i, 3) for i in range(6)]

        with obs.session() as serial:
            for t in tasks:
                _emit_fixed_metrics(t)
        with obs.session() as merged:
            for _, metrics in map_in_processes(
                _emit_fixed_metrics, tasks, jobs=2
            ):
                merge_metrics(metrics)

        assert merged.counters == serial.counters
        assert merged.gauges == serial.gauges
        assert set(merged.histograms) == set(serial.histograms)
        for name, h in serial.histograms.items():
            assert merged.histograms[name] == h, name
            assert merged.histograms[name].to_dict() == h.to_dict(), name

    def test_merge_metrics_noop_without_session(self):
        assert obs.current_session() is None
        merge_metrics({"counters": {"x": 1}, "gauges": {"g": 2},
                       "histograms": {"h": {"count": 1, "total": 5, "max": 5,
                                            "buckets": {"3": 1}}}})
        assert obs.snapshot() == ({}, {})


class TestFuzzJobsMetricsParity:
    def test_serial_and_parallel_fuzz_report_identical_events(self):
        from repro.fuzz.runner import fuzz_run

        with obs.session(), obs.collect_events() as s1:
            fuzz_run(8, seed=3, corpus_dir=None)
        with obs.session(), obs.collect_events() as s2:
            fuzz_run(8, seed=3, corpus_dir=None, jobs=2)

        ev1 = [(e.kind, e.verdict, e.reason, e.attrs) for e in s1
               if e.kind == "fuzz"]
        ev2 = [(e.kind, e.verdict, e.reason, e.attrs) for e in s2
               if e.kind == "fuzz"]
        assert ev1 == ev2

    def test_serial_and_parallel_fuzz_do_identical_work(self, monkeypatch):
        """The pipeline work counters match too — compared with
        memoization off on both sides: like ``fm.*``, the ``dependence.*``
        counters count work *done*, and workers start with cold memos
        where the parent process may hold a program already analysed."""
        from repro.fuzz.runner import fuzz_run

        # forked workers inherit the switch, spawned ones read the variable
        monkeypatch.setenv("REPRO_FM_CACHE", "0")
        with engine.cache_disabled():
            with obs.session() as s1:
                fuzz_run(8, seed=3, corpus_dir=None)
            with obs.session() as s2:
                fuzz_run(8, seed=3, corpus_dir=None, jobs=2)

        deterministic = ("dependence.", "legality.", "completion.",
                         "codegen.", "interp.")

        def picked(counters):
            return {k: v for k, v in counters.items()
                    if k.startswith(deterministic)}

        assert picked(s1.counters)["dependence.pairs_tested"] > 0
        assert picked(s2.counters) == picked(s1.counters)
