"""Concurrency gauntlet: a thread fleet of mixed operations against one
daemon must produce byte-identical results to serial local runs, even
while the shard map is evicting under pressure; async jobs cancel
cleanly on a live daemon; SIGTERM flushes the trace sink."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import api
from repro.ir import program_to_str
from repro.kernels import cholesky, trmm
from repro.kernels.stencils import seidel_2d
from repro.util.errors import ServiceError

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: (kernel factory, legal spec, probe spec that may be legal or illegal)
KERNELS = [
    (cholesky, "skew(I,K,1)", "permute(I,K)"),
    (trmm, "interchange(I,J)", "reverse(I)"),
    (seidel_2d, "skew(J,I,1)", "reverse(I)"),
]


def _expected_workload():
    """The workload and its serial ground truth, computed locally.

    Each item is ``(op, program_text, kwargs, expected_render)`` — the
    daemon must reproduce ``expected_render`` byte-for-byte no matter
    how many threads are in flight or which shards were evicted.
    """
    items = []
    for factory, legal, probe in KERNELS:
        program = factory()
        src = program_to_str(program)
        items.append(
            ("analyze", src, {}, api.analyze_op(program).render())
        )
        items.append(
            ("check", src, {"spec": legal},
             api.check_op(program, legal).render())
        )
        items.append(
            ("check", src, {"spec": probe},
             api.check_op(program, probe).render())
        )
        items.append(
            ("transform", src, {"spec": legal},
             api.transform_op(program, legal).render())
        )
    return items


RESULT_TYPES = {
    "analyze": api.AnalyzeResult,
    "check": api.CheckResult,
    "transform": api.TransformResult,
}


def test_thread_fleet_matches_serial_under_shard_eviction(make_daemon):
    # max_shards=2 with three kernels in rotation: every round trips
    # over the LRU boundary, so results must survive shard re-parses
    server, client = make_daemon(max_shards=2)
    items = _expected_workload()
    rounds = 3
    work = [(i, item) for _ in range(rounds) for i, item in enumerate(items)]

    failures: list[str] = []
    lock = threading.Lock()

    def worker(chunk):
        for idx, (op, src, kwargs, expected) in chunk:
            try:
                payload = client.request(op, program=src, **kwargs)
                got = RESULT_TYPES[op].from_payload(payload).render()
            except Exception as exc:  # noqa: BLE001 - collected below
                with lock:
                    failures.append(f"item {idx} ({op}): {exc!r}")
                continue
            if got != expected:
                with lock:
                    failures.append(f"item {idx} ({op}): render diverged")

    n_threads = 8
    chunks = [work[i::n_threads] for i in range(n_threads)]
    threads = [threading.Thread(target=worker, args=(c,)) for c in chunks]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert not failures, "\n".join(failures)

    m = client.metrics()
    assert m["pool"]["shard_count"] <= 2
    assert m["pool"]["shard_evictions"] > 0, "eviction pressure never hit"
    assert m["counters"].get("service.errors", 0) == 0


def test_concurrent_tunes_share_the_persistent_store(make_daemon):
    server, client = make_daemon()
    src = program_to_str(cholesky())
    opts = dict(backend="reference", beam_width=2, depth=1, top_k=1,
                repeat=3, include_structural=False)
    # serial warm-up populates the daemon's tune store; the second call
    # is the deterministic cached render every concurrent tune must match
    client.request("tune", program=src, params={"N": 8}, name="cholesky", **opts)
    expected = api.TuneOutcome.from_payload(
        client.request("tune", program=src, params={"N": 8}, name="cholesky", **opts)
    )
    assert expected.from_cache

    renders: list[str] = []
    lock = threading.Lock()

    def worker():
        outcome = api.TuneOutcome.from_payload(
            client.request(
                "tune", program=src, params={"N": 8}, name="cholesky", **opts
            )
        )
        with lock:
            renders.append(outcome.render())

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert len(renders) == 6
    assert all(r == expected.render() for r in renders)


def test_job_cancellation_on_a_live_daemon(make_daemon):
    # one worker: the slow blocker pins it, so the victim stays pending
    server, client = make_daemon(job_workers=1)
    src = program_to_str(cholesky())
    blocker = client.submit("run", program=src, params={"N": 60})
    victim = client.submit("analyze", program=src)
    assert client.job_cancel(victim) is True
    assert client.job_poll(victim)["status"] == "cancelled"
    with pytest.raises(ServiceError) as exc_info:
        client.job_result(victim)
    assert exc_info.value.kind == "JobCancelled"
    # the blocker is unaffected and completes normally
    payload = client.job_wait(blocker, timeout=120)
    local = api.run_op(cholesky(), {"N": 60}).render()
    assert api.RunResult.from_payload(payload).render() == local
    # a finished job cannot be cancelled
    assert client.job_cancel(blocker) is False


def test_sigterm_drains_and_flushes_the_trace(tmp_path):
    from repro.service.client import ServiceClient

    trace = tmp_path / "service-trace.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--trace-json", str(trace), "--tune-dir", str(tmp_path / "tune")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        line = proc.stdout.readline()
        assert "repro service listening on " in line, line
        url = line.strip().rsplit(" ", 1)[-1]
        client = ServiceClient(url, timeout=30.0)
        client.wait_ready(timeout=15.0)
        client.request("analyze", program=program_to_str(cholesky()))
        assert client.ping()["pong"] is True
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, (out, err)
    assert "repro service stopped" in out
    # the trace sink was flushed and closed: every line parses, and the
    # request that ran before SIGTERM is in there
    lines = [json.loads(l) for l in trace.read_text().splitlines() if l]
    assert lines, "trace file is empty"
    assert any(
        str(entry.get("name", "")).startswith("service.") for entry in lines
    ), "service metrics never reached the sink"


def test_fuzzer_with_service_oracle_finds_no_divergence(make_daemon, tmp_path):
    from repro.fuzz.runner import fuzz_run

    server, client = make_daemon()
    session = fuzz_run(
        runs=8, seed=1234, jobs=1, minimize=False,
        corpus_dir=tmp_path / "corpus", service=server.url,
    )
    assert session.ok, session.summary()
    assert not session.divergences


def test_shutdown_drains_inflight_requests(make_daemon):
    # a request that is mid-flight when shutdown lands must still get
    # its answer: server_close() joins handler threads before returning
    server, client = make_daemon()
    src = program_to_str(cholesky())
    results: list[str] = []

    def slow_request():
        payload = client.request("run", program=src, params={"N": 50})
        results.append(api.RunResult.from_payload(payload).render())

    t = threading.Thread(target=slow_request)
    t.start()
    time.sleep(0.15)  # let the request reach the handler
    server.request_shutdown()
    t.join(60)
    server.close()
    assert results == [api.run_op(cholesky(), {"N": 50}).render()]
