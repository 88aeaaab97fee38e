"""Live daemon: warm-path results byte-identical to local pipeline runs,
HTTP surface, job ops, metrics, and remote CLI integration."""

from __future__ import annotations

import json
import socket
import urllib.request

import pytest

from repro import api
from repro.ir import program_to_str
from repro.kernels import cholesky
from repro.service.client import ServiceClient
from repro.service.server import MAX_BODY_BYTES
from repro.util.errors import ServiceError

SRC = program_to_str(cholesky())
LEGAL_SPEC = "skew(I,K,1)"
ILLEGAL_SPEC = "permute(I,K)"


def test_ping_and_healthz(daemon):
    server, client = daemon
    pong = client.ping()
    assert pong["pong"] is True and pong["uptime_seconds"] >= 0
    assert client.healthz() is True


class TestByteIdentity:
    """The service contract: warm payloads render exactly like local runs."""

    def test_analyze(self, daemon):
        _, client = daemon
        local = api.analyze_op(cholesky()).render()
        remote = api.AnalyzeResult.from_payload(
            client.request("analyze", program=SRC)
        ).render()
        assert remote == local

    def test_analyze_refined(self, daemon):
        _, client = daemon
        local = api.analyze_op(
            cholesky(), refine=True, sample_params=["N=5"]
        ).render()
        remote = api.AnalyzeResult.from_payload(
            client.request("analyze", program=SRC, refine=True, sample_params=("N=5",))
        ).render()
        assert remote == local

    def test_check_legal_and_illegal(self, daemon):
        _, client = daemon
        for spec in (LEGAL_SPEC, ILLEGAL_SPEC):
            local = api.check_op(cholesky(), spec)
            remote = api.CheckResult.from_payload(
                client.request("check", program=SRC, spec=spec)
            )
            assert remote.render() == local.render()
            assert remote.exit_code == local.exit_code

    def test_transform(self, daemon):
        """``simplify`` is accepted and ignored: the output is always
        simplified, direct or via a job."""
        _, client = daemon
        local = api.transform_op(cholesky(), LEGAL_SPEC).render()
        assert api.transform_op(cholesky(), LEGAL_SPEC, simplify=True).render() == local
        for extra in ({}, {"simplify": True}):
            remote = api.TransformResult.from_payload(
                client.request("transform", program=SRC, spec=LEGAL_SPEC, **extra)
            ).render()
            assert remote == local
        jid = client.submit("transform", program=SRC, spec=LEGAL_SPEC, simplify=True)
        remote = api.TransformResult.from_payload(client.job_wait(jid, timeout=60))
        assert remote.render() == local

    def test_complete(self, daemon):
        _, client = daemon
        local = api.complete_op(cholesky(), "L").render()
        remote = api.CompleteResult.from_payload(
            client.request("complete", program=SRC, lead="L")
        ).render()
        assert remote == local

    def test_run_reference_and_trace(self, daemon):
        _, client = daemon
        local = api.run_op(cholesky(), {"N": 6}, trace=True).render()
        remote = api.RunResult.from_payload(
            client.request("run", program=SRC, params={"N": 6}, trace=True)
        ).render()
        assert remote == local

    def test_run_source_backend(self, daemon):
        _, client = daemon
        local = api.run_op(cholesky(), {"N": 6}, backend="source").render()
        remote = api.RunResult.from_payload(
            client.request("run", program=SRC, params={"N": 6}, backend="source")
        ).render()
        assert remote == local

    def test_explain_legality(self, daemon):
        _, client = daemon
        local = api.explain_op(
            cholesky(), phase="legality", spec=LEGAL_SPEC
        )
        remote = api.ExplainResult.from_payload(
            client.request("explain", program=SRC, name="cholesky",
                           phase="legality", spec=LEGAL_SPEC)
        )
        assert remote.render() == local.render()
        assert "cholesky" in remote.render()


class TestCachingOverHTTP:
    def test_second_identical_request_is_cached(self, daemon):
        _, client = daemon
        first = client.request_full("analyze", program=SRC)
        second = client.request_full("analyze", program=SRC)
        assert first.ok and not first.cached
        assert second.ok and second.cached
        assert first.result == second.result

    def test_formatting_variants_share_the_cache(self, daemon):
        _, client = daemon
        client.request_full("analyze", program=SRC)
        # re-serialize through a parse: different surface text, same program
        variant = SRC.replace("do ", "do  ")
        second = client.request_full("analyze", program=variant)
        assert second.cached

    def test_error_results_are_not_cached(self, daemon):
        _, client = daemon
        for _ in range(2):
            resp = client.request_full("transform", program=SRC, spec=ILLEGAL_SPEC)
            assert not resp.ok and not resp.cached
            assert resp.error_kind.endswith("Error")


class TestErrorRelay:
    def test_parse_error_kind(self, daemon):
        _, client = daemon
        with pytest.raises(ServiceError) as exc_info:
            client.request("analyze", program="do without end")
        assert exc_info.value.kind == "ParseError"

    def test_trace_needs_reference_backend(self, daemon):
        _, client = daemon
        with pytest.raises(ServiceError, match="reference"):
            client.request(
                "run", program=SRC, params={"N": 4}, backend="source", trace=True
            )

    def test_http_404(self, daemon):
        server, _ = daemon
        req = urllib.request.Request(server.url + "/nope", method="GET")
        try:
            urllib.request.urlopen(req)
        except urllib.error.HTTPError as err:
            assert err.code == 404
        else:  # pragma: no cover
            raise AssertionError("expected 404")


class TestBodyBound:
    """``POST /v1`` decides from ``Content-Length`` alone: it answers at
    once, reads nothing, and leaves no handler thread blocked."""

    @pytest.mark.parametrize(
        "length,status,kind",
        [
            ("-1", 400, "ServiceError"),
            ("eight", 400, "ServiceError"),
            (str(MAX_BODY_BYTES + 1), 413, "RequestTooLarge"),
        ],
        ids=["negative", "non-integer", "oversize"],
    )
    def test_bad_length_is_refused_unread(self, daemon, length, status, kind):
        from repro import obs

        server, client = daemon
        host, port = server.httpd.server_address[:2]
        # the in-process daemon counts into this test's obs session
        with obs.session(), socket.create_connection((host, port), timeout=3) as sock:
            # headers only: a server that tried to read the body would
            # block until this socket's timeout, not answer
            sock.sendall(
                f"POST /v1 HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Length: {length}\r\n\r\n".encode()
            )
            reply = b""
            while chunk := sock.recv(65536):  # until the server closes
                reply += chunk
            errors = client.metrics()["counters"].get("service.errors")
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == str(status).encode()
        wire = json.loads(body)
        assert wire["ok"] is False and wire["error_kind"] == kind
        assert errors == 1
        # every handler thread is gone once the sockets are (the client's
        # kept-alive one included): _threads is what server_close() would
        # block joining
        client.close()
        for thread in list(server.httpd._threads or ()):
            thread.join(3)
            assert not thread.is_alive()


class TestJobsOverHTTP:
    def test_submit_and_wait(self, daemon):
        _, client = daemon
        jid = client.submit("analyze", program=SRC)
        payload = client.job_wait(jid, timeout=60)
        local = api.analyze_op(cholesky()).render()
        assert api.AnalyzeResult.from_payload(payload).render() == local

    def test_submit_validates_args_up_front(self, daemon):
        _, client = daemon
        with pytest.raises(ServiceError, match="bogus"):
            client.submit("analyze", program=SRC, bogus=1)
        with pytest.raises(ServiceError, match="cannot submit"):
            client.submit("ping")

    def test_job_errors_are_relayed(self, daemon):
        _, client = daemon
        jid = client.submit("analyze", program="not a program")
        with pytest.raises(ServiceError) as exc_info:
            client.job_wait(jid, timeout=60)
        assert exc_info.value.kind == "ParseError"


def test_metrics_endpoint(daemon):
    server, client = daemon
    client.request("analyze", program=SRC)
    client.request("analyze", program=SRC)
    m = client.metrics()
    assert m["pool"]["shard_count"] == 1
    assert m["pool"]["cache_hits"] >= 1
    assert m["jobs"]["jobs"] == 0
    # raw GET serves the same JSON
    with urllib.request.urlopen(server.url + "/metrics") as resp:
        raw = json.loads(resp.read())
    assert raw["pool"]["shard_count"] == 1


def test_symbolic_check_served_and_counted(daemon):
    """A symbolic appeal over the wire: byte-identical to local, and the
    oracle's counters/histograms surface in /metrics.  The in-process
    daemon shares this test's obs session (`repro serve` installs its
    own), so the /metrics snapshot sees the handler thread's counters."""
    from repro import obs
    from repro.kernels import syrk

    _, client = daemon
    syrk_src = program_to_str(syrk())
    local = api.check_op(syrk(), "reverse(K)", oracle="symbolic")
    with obs.session():
        remote = api.CheckResult.from_payload(
            client.request("check", program=syrk_src, spec="reverse(K)", symbolic=True)
        )
        m = client.metrics()
    assert remote.render() == local.render()
    assert remote.accepted and remote.exit_code == 0
    assert m["counters"].get("symbolic.attempts", 0) >= 1
    assert m["counters"].get("symbolic.certificates", 0) >= 1
    assert "symbolic.check_ns" in m["histograms"]


def test_dependence_memo_counted_on_metrics(daemon):
    """Two ops on one program: the result cache cannot answer the second
    (another op), the engine's dependence memo answers its analysis."""
    from repro import obs
    from repro.polyhedra import engine

    _, client = daemon
    engine.cache_clear()
    with obs.session():
        client.request("analyze", program=SRC)
        client.request("check", program=SRC, spec="reverse(J)")
        m = client.metrics()
    assert m["counters"].get("dependence.memo_misses", 0) == 1
    assert m["counters"].get("dependence.memo_hits", 0) >= 1


def test_tune_via_daemon_matches_cached_local_tune(daemon):
    server, client = daemon
    opts = dict(backend="reference", beam_width=2, depth=1, top_k=1,
                repeat=3, include_structural=False)
    first = api.TuneOutcome.from_payload(
        client.request("tune", program=SRC, params={"N": 8}, name="cholesky", **opts)
    )
    assert first.program == "cholesky"
    assert any(r.get("winner") for r in first.rows)
    # the winner is persisted in the daemon's store; a local tune against
    # the same cache dir is a cache hit with the identical entry
    local = api.tune_op(
        cholesky(), {"N": 8}, cache_dir=server.service.tune_dir, **opts
    )
    assert local.from_cache
    remote_again = api.TuneOutcome.from_payload(
        client.request("tune", program=SRC, params={"N": 8}, name="cholesky", **opts)
    )
    assert remote_again.from_cache
    assert remote_again.render() == local.render()


def test_shutdown_op_stops_the_daemon(make_daemon):
    server, client = make_daemon()
    client.shutdown()
    # the accept loop exits; subsequent requests fail with unreachable
    server.httpd.server_close()
    with pytest.raises(ServiceError):
        ServiceClient(server.url, timeout=2.0).ping()
