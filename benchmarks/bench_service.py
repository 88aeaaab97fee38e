"""E20 — the transformation service's wall-clock claim: a persistent
daemon whose shard map, result caches, and engine memos stay warm
serves an analyze/transform request orders of magnitude faster than a
cold ``repro`` CLI subprocess that pays interpreter start-up, parse,
and a from-scratch dependence analysis on every call — while staying
byte-identical to the cold path on every response.

The assertions are the service-smoke acceptance bar: the warm daemon
at least ``SERVICE_MIN_SPEEDUP`` (5x) over the cold CLI on
cholesky/trmm/seidel, byte-exact renders, and a clean sustained-load
pass under 8 concurrent clients.  The cold side forks real CLI
subprocesses, so the module costs a few seconds.  docs/SERVICE.md has
the protocol and the caching semantics.
"""

import os
import statistics
import subprocess
import sys
import threading
import time

import pytest

from repro import api
from repro.ir import program_to_str
from repro.kernels import cholesky, seidel_2d, trmm

#: The E20 floor: a warm daemon request against a cold CLI subprocess.
SERVICE_MIN_SPEEDUP = 5.0

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def service():
    """One warm daemon for the whole module, plus on-disk kernel files
    for the cold CLI side."""
    import tempfile

    from repro.service.client import ServiceClient
    from repro.service.server import ServiceServer

    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for factory in (cholesky, trmm, seidel_2d):
            program = factory()
            path = os.path.join(tmp, f"{program.name}.loop")
            with open(path, "w") as f:
                f.write(program_to_str(program))
            files[program.name] = path
        server = ServiceServer(port=0, tune_dir=os.path.join(tmp, "tune"))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(server.url, timeout=120.0)
        client.wait_ready(timeout=15.0)
        try:
            yield server, client, files
        finally:
            server.request_shutdown()
            thread.join(10)
            server.close()


def _cold_seconds(argv, repeat=3):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, env=env, cwd=REPO,
        )
        times.append(time.perf_counter() - t0)
        assert proc.returncode == 0, proc.stderr
    return statistics.median(times)


def _warm_seconds(request, repeat=20):
    request()  # prime
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        request()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def test_e20_warm_daemon_beats_cold_cli(service, benchmark):
    _, client, files = service
    sources = {p.name: program_to_str(p) for p in (cholesky(), trmm(), seidel_2d())}
    rows = [
        (f"{name} analyze", ["deps", files[name]],
         lambda src=src: client.request("analyze", program=src))
        for name, src in sources.items()
    ]
    rows.append((
        "cholesky transform", ["transform", files["cholesky"], "skew(I,K,1)"],
        lambda: client.request(
            "transform", program=sources["cholesky"], spec="skew(I,K,1)"),
    ))
    print("\n[E20] warm daemon vs cold CLI:")
    speedups = {}
    for name, argv, request in rows:
        cold_s = _cold_seconds(argv)
        warm_s = _warm_seconds(request)
        speedups[name] = cold_s / warm_s
        print(
            f"  {name:20s} cold {cold_s * 1e3:8.1f} ms  "
            f"warm {warm_s * 1e3:8.3f} ms  {cold_s / warm_s:8.1f}x"
        )
    benchmark(client.request, "analyze", program=sources["cholesky"])
    for name, speedup in speedups.items():
        assert speedup >= SERVICE_MIN_SPEEDUP, (
            f"{name}: warm path only {speedup:.1f}x faster than the cold "
            f"CLI (floor {SERVICE_MIN_SPEEDUP}x)"
        )


def test_e20_warm_results_stay_byte_identical(service):
    _, client, _ = service
    for factory in (cholesky, trmm, seidel_2d):
        program = factory()
        local = api.analyze_op(program).render()
        remote = api.AnalyzeResult.from_payload(
            client.request("analyze", program=program_to_str(program))
        ).render()
        assert remote == local, program.name
    # the served copies really are warm: a repeat request is a cache hit
    resp = client.request_full("analyze", program=program_to_str(cholesky()))
    assert resp.ok and resp.cached


def test_e20_throughput_under_concurrent_clients(service):
    _, client, _ = service
    n_clients, per_client = 8, 25
    sources = [program_to_str(f()) for f in (cholesky, trmm, seidel_2d)]
    for src in sources:
        client.request("analyze", program=src)  # prime every shard
    errors = []
    lock = threading.Lock()

    def hammer():
        for i in range(per_client):
            try:
                client.request("analyze", program=sources[i % len(sources)])
            except Exception as exc:  # noqa: BLE001 - collected below
                with lock:
                    errors.append(str(exc))

    threads = [threading.Thread(target=hammer) for _ in range(n_clients)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    elapsed = time.perf_counter() - t0
    total = n_clients * per_client
    print(
        f"\n[E20] {total} requests from {n_clients} clients in "
        f"{elapsed:.2f}s -> {total / elapsed:.0f} req/s"
    )
    assert not errors, errors[:3]
    assert total / elapsed > 0
    m = client.metrics()
    assert m["counters"].get("service.errors", 0) == 0
