"""Kept-alive connections: one per client thread, replies never crossed,
a refused request recovered from, and shutdown never held up by a
client that keeps an idle connection open."""

from __future__ import annotations

import statistics
import threading
import time

import pytest

from repro import api, obs
from repro.ir import program_to_str
from repro.kernels import cholesky, trmm
from repro.service import server as server_mod
from repro.service.client import ServiceClient
from repro.util.errors import ServiceError

PROGRAMS = [cholesky(), trmm()]
TEXTS = [program_to_str(p) for p in PROGRAMS]


def _connections() -> int:
    return obs.snapshot()[0].get("service.connections", 0)


def test_a_thread_keeps_one_connection_and_its_own_replies(daemon):
    server, _ = daemon
    renders = [api.analyze_op(p).render() for p in PROGRAMS]

    def drive(client: ServiceClient, first: int, out: list) -> None:
        for i in range(20):
            k = (first + i) % 2
            payload = client.request("analyze", program=TEXTS[k])
            out.append(api.AnalyzeResult.from_payload(payload).render() == renders[k])

    with obs.session():
        with ServiceClient(server.url) as client:
            alone: list[bool] = []
            drive(client, 0, alone)
            assert _connections() == 1
        with ServiceClient(server.url) as client:
            outs: list[list[bool]] = [[], []]
            threads = [
                threading.Thread(target=drive, args=(client, w, outs[w]))
                for w in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
                assert not t.is_alive()
            assert _connections() == 1 + 2
    assert alone == [True] * 20
    assert outs == [[True] * 20, [True] * 20], "a thread read another's reply"


def test_a_reused_connection_does_not_wait_out_nagle(daemon):
    """A reply sent as a header segment then a body segment waits for
    the client's delayed ACK, about 40 ms on every reused connection;
    one send per reply answers a ping in well under a millisecond."""
    _, client = daemon
    times = []
    for _ in range(11):
        t0 = time.perf_counter()
        client.ping()
        times.append(time.perf_counter() - t0)
    assert statistics.median(times) < 0.020, times


@pytest.mark.parametrize("close", ["ServiceServer.close", "httpd.server_close"])
def test_an_idle_connection_does_not_delay_close(make_daemon, close):
    server, client = make_daemon()
    assert client.ping()["pong"] is True  # the connection is now idle
    server.request_shutdown()
    closer = threading.Thread(
        target=server.close if close == "ServiceServer.close"
        else server.httpd.server_close
    )
    closer.start()
    closer.join(2.0)
    held = closer.is_alive()
    if not held:
        # the daemon shut the idle connection: one reconnect, then refused
        with pytest.raises(ServiceError) as exc_info:
            client.ping()
        assert exc_info.value.kind == "ServiceUnreachable"
    client.close()  # frees a close stuck behind the idle connection
    closer.join(10)
    assert not held, f"{close}() waited for an idle connection"


def test_the_next_request_after_a_refused_one_succeeds(daemon, monkeypatch):
    _, client = daemon
    monkeypatch.setattr(server_mod, "MAX_BODY_BYTES", 64)
    with pytest.raises(ServiceError):  # 413, answered with Connection: close
        client.request("analyze", program=TEXTS[0])
    monkeypatch.undo()
    assert client.request_full("analyze", program=TEXTS[0]).ok


def test_an_interim_100_continue_is_not_held_in_the_reply_buffer(daemon):
    """A client that sends ``Expect: 100-continue`` waits for the
    interim reply before its body; buffering replies must not hold it."""
    import json
    import socket

    server, _ = daemon
    host, port = server.httpd.server_address[:2]
    body = json.dumps({"protocol": 1, "op": "ping", "args": {}}).encode()
    with socket.create_connection((host, port), timeout=3) as sock:
        sock.sendall(
            f"POST /v1 HTTP/1.1\r\nHost: {host}\r\nExpect: 100-continue\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode()
        )
        assert sock.recv(64).startswith(b"HTTP/1.1 100")  # times out if held
        sock.sendall(body)
        reply = b""
        while b'"pong"' not in reply:
            chunk = sock.recv(65536)
            assert chunk, reply
            reply += chunk
    assert b" 200 " in reply
