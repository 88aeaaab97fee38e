"""The transformation service daemon (``repro serve``).

One ``ThreadingHTTPServer`` where every request thread dispatches into a
shared :class:`ReproService`:

* ``POST /v1`` — one protocol request per call (``protocol.py``), its
  declared body length bounded by :data:`MAX_BODY_BYTES`; the pipeline
  ops all run through :func:`repro.api.execute` — the cacheable ones
  (:data:`repro.api.OPS`) behind the engine pool's shard caches and
  in-flight coalescing, ``tune`` and ``explain`` under the program's
  shard lock — and ``submit`` / ``job_*`` drive the async job queue;
* ``GET /metrics`` — counters, gauges, ``service.request_ns.<op>``
  latency histograms, shard and job statistics as JSON;
* ``GET /healthz`` — liveness.

Connections are HTTP/1.1 keep-alive: one handler thread serves a
client's requests until the client closes the connection.

Graceful shutdown: SIGTERM/SIGINT (or the ``shutdown`` op) stop the
accept loop, close the connections that sit idle between requests,
drain in-flight request threads (the handler threads are non-daemon),
drain the job queue, and only then uninstall the observability session
— which flushes and closes the trace sink, so a killed daemon never
leaves a truncated JSONL artifact (docs/SERVICE.md).
"""

from __future__ import annotations

import dataclasses
import json
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro import api, obs
from repro.service.engine_pool import EnginePool
from repro.service.jobs import JobQueue
from repro.service.protocol import PROTOCOL_VERSION, Response, decode_request
from repro.util.errors import ReproError, ServiceError

__all__ = ["ReproService", "ServiceServer", "serve"]

#: Largest request body ``POST /v1`` reads.  Programs are source text of
#: at most a few kilobytes; anything near this is not a request.
MAX_BODY_BYTES = 8 * 1024 * 1024


class ReproService:
    """Protocol dispatcher: wire dict in, :class:`Response` out.

    HTTP-free by design so tests can drive it directly.
    """

    def __init__(
        self,
        pool: EnginePool | None = None,
        job_workers: int = 2,
        tune_dir: str | None = None,
    ):
        self.pool = pool or EnginePool()
        self.tune_dir = tune_dir
        self.jobs = JobQueue(self._run_submitted, workers=job_workers)
        self._metrics_lock = threading.Lock()
        self.started_at = time.time()
        self.shutdown_callback = None  # set by ServiceServer

    # -- dispatch --------------------------------------------------------

    def handle(self, wire: dict) -> Response:
        t0 = time.perf_counter_ns()
        op = wire.get("op") if isinstance(wire, dict) else None
        try:
            req = decode_request(wire)
            payload, cached, coalesced = self._dispatch(req)
            resp = Response(
                ok=True, result=payload, cached=cached, coalesced=coalesced
            )
        except ReproError as exc:
            self.count("service.errors")
            # a ServiceError carries a relayed kind (e.g. a job's ParseError)
            kind = getattr(exc, "kind", None) or type(exc).__name__
            resp = Response(ok=False, error=str(exc), error_kind=kind)
        except Exception as exc:  # noqa: BLE001 - relayed, never a 500
            self.count("service.errors")
            resp = Response(
                ok=False,
                error=f"internal error: {type(exc).__name__}: {exc}",
                error_kind=type(exc).__name__,
            )
        resp.served_ns = time.perf_counter_ns() - t0
        with self._metrics_lock:
            obs.counter("service.requests")
            if op:
                obs.histogram(f"service.request_ns.{op}", resp.served_ns)
        return resp

    def count(self, name: str) -> None:
        """Bump a counter from any handler thread."""
        with self._metrics_lock:
            obs.counter(name)

    def _dispatch(self, req) -> tuple[dict, bool, bool]:
        op = req.op
        if op == "ping":
            return {
                "pong": True,
                "protocol": PROTOCOL_VERSION,
                "uptime_seconds": time.time() - self.started_at,
            }, False, False
        if op == "metrics":
            return self.metrics_payload(), False, False
        if op == "shutdown":
            if self.shutdown_callback is None:
                raise ServiceError("daemon does not accept remote shutdown")
            self.shutdown_callback()
            return {"shutting_down": True}, False, False
        if op == "submit":
            if req.submit_op not in api.OPS:
                raise ServiceError(
                    f"cannot submit op {req.submit_op!r} "
                    f"(submittable: {', '.join(sorted(api.OPS))})"
                )
            # validate names and values now so submit fails fast, not at
            # job runtime
            decode_request(
                {"protocol": PROTOCOL_VERSION, "op": req.submit_op,
                 "args": dict(req.args)}
            )
            return {"job_id": self.jobs.submit(req.submit_op, dict(req.args))}, \
                False, False
        if op == "job_poll":
            return self.jobs.poll(req.job_id), False, False
        if op == "job_result":
            return self.jobs.result(req.job_id), False, False
        if op == "job_cancel":
            return {"cancelled": self.jobs.cancel(req.job_id)}, False, False
        if op not in api.OPS:
            raise ServiceError(f"unhandled op {op!r}")

        shard = self.pool.shard_for(req.program)
        if api.OPS[op].cacheable:
            sig = self._signature(req)
            return self.pool.compute(
                shard, sig, lambda: self._execute(req, shard.program)
            )
        # tune / explain: serialized per shard, never result-cached
        with shard.lock:
            return self._execute(req, shard.program), False, False

    @staticmethod
    def _signature(req) -> tuple:
        items = []
        for f in dataclasses.fields(req):
            if f.name == "program":
                continue
            v = getattr(req, f.name)
            if isinstance(v, dict):
                v = tuple(sorted(v.items()))
            items.append((f.name, v))
        return (req.op, tuple(items))

    def _run_submitted(self, op: str, args: dict) -> dict:
        """Job-queue handler: re-enter the normal dispatch path."""
        req = decode_request(
            {"protocol": PROTOCOL_VERSION, "op": op, "args": args}
        )
        payload, _, _ = self._dispatch(req)
        return payload

    # -- op execution ----------------------------------------------------

    def _execute(self, req, program) -> dict:
        fields = {
            f.name: getattr(req, f.name)
            for f in dataclasses.fields(req) if f.name != "program"
        }
        return api.execute(
            req.op, program, fields, cache_dir=self.tune_dir
        ).to_payload()

    # -- metrics ---------------------------------------------------------

    def metrics_payload(self) -> dict:
        counters, gauges = obs.snapshot()
        hists = {
            name: {
                "count": h.count, "total": h.total, "max": h.max,
                "p50": h.p50, "p90": h.p90, "p99": h.p99,
            }
            for name, h in obs.snapshot_histograms().items()
        }
        return {
            "uptime_seconds": time.time() - self.started_at,
            "counters": counters,
            "gauges": gauges,
            "histograms": hists,
            "pool": self.pool.snapshot(),
            "jobs": self.jobs.snapshot(),
        }


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/" + str(PROTOCOL_VERSION)
    protocol_version = "HTTP/1.1"
    # Headers and body leave in one send() when the handler flushes: a
    # header segment followed by a body segment waits out Nagle plus the
    # client's delayed ACK (~40 ms) on a kept-alive connection.
    wbufsize = 64 * 1024
    disable_nagle_algorithm = True

    # BaseHTTPRequestHandler logs to stderr per request; the daemon's
    # observability lives in the obs session instead.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def handle_one_request(self):
        # until a request line arrives the connection is idle, and
        # server_close() may shut it
        if not self.server.mark_idle(self.connection):  # type: ignore[attr-defined]
            self.close_connection = True
            return
        super().handle_one_request()

    def parse_request(self) -> bool:
        if not self.server.mark_busy(self.connection):  # type: ignore[attr-defined]
            self.close_connection = True  # shut while idle: answer nothing
            return False
        return super().parse_request()

    def handle_expect_100(self) -> bool:
        ok = super().handle_expect_100()
        self.wfile.flush()  # the interim reply must not wait in the buffer
        return ok

    def finish(self):
        self.server.forget(self.connection)  # type: ignore[attr-defined]
        super().finish()

    def _send_json(self, code: int, payload: dict, close: bool = False) -> None:
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close or self.server.closing:  # type: ignore[attr-defined]
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):  # noqa: N802 - stdlib dispatch name
        service = self.server.service  # type: ignore[attr-defined]
        if self.path == "/healthz":
            self._send_json(200, {"ok": True})
        elif self.path == "/metrics":
            self._send_json(200, service.metrics_payload())
        else:
            self._send_json(404, {"ok": False, "error": f"no route {self.path}"})

    def _reject(self, code: int, error: str, kind: str) -> None:
        """Refuse a request before dispatch: count it, answer, and drop
        the connection (a body left unread would otherwise be parsed as
        the next request)."""
        self.server.service.count("service.errors")  # type: ignore[attr-defined]
        self._send_json(
            code, Response(ok=False, error=error, error_kind=kind).to_wire(),
            close=True,
        )

    def do_POST(self):  # noqa: N802 - stdlib dispatch name
        service = self.server.service  # type: ignore[attr-defined]
        if self.path not in ("/v1", "/v1/"):
            self._send_json(404, {"ok": False, "error": f"no route {self.path}"})
            return
        declared = self.headers.get("Content-Length", "0")
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            self._reject(400, f"bad Content-Length {declared!r}", "ServiceError")
            return
        if length > MAX_BODY_BYTES:
            self._reject(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
                "RequestTooLarge",
            )
            return
        try:
            wire = json.loads(self.rfile.read(length) or b"{}")
        except ValueError as exc:  # JSONDecodeError, or undecodable bytes
            self._reject(400, f"bad request body: {exc}", "ServiceError")
            return
        resp = service.handle(wire)
        self._send_json(200 if resp.ok else 422, resp.to_wire())


class _HTTPServer(ThreadingHTTPServer):
    """Threaded keep-alive server whose ``server_close()`` shuts the
    connections idle between requests, then joins every handler thread.

    Non-daemon handler threads + ``block_on_close``: the join drains
    in-flight requests — the "drain" half of graceful shutdown.  Without
    the idle close it would also wait for every kept-alive client to hang
    up.  A connection is idle from the moment its handler waits for a
    request line until one arrives (:meth:`mark_idle` /
    :meth:`mark_busy`); a request that arrives on a connection already
    shut gets no answer, and its client sees the daemon gone.
    """

    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._conn_lock = threading.Lock()
        self._idle: set[socket.socket] = set()
        self.closing = False

    def process_request(self, request, client_address):
        self.service.count("service.connections")  # type: ignore[attr-defined]
        super().process_request(request, client_address)

    def mark_idle(self, conn: socket.socket) -> bool:
        """``conn`` waits for a request line; False once closing."""
        with self._conn_lock:
            if self.closing:
                return False
            self._idle.add(conn)
            return True

    def mark_busy(self, conn: socket.socket) -> bool:
        """A request line arrived on ``conn``; False if it was shut first."""
        with self._conn_lock:
            if conn not in self._idle:
                return False
            self._idle.remove(conn)
            return True

    def forget(self, conn: socket.socket) -> None:
        """The handler is done with ``conn`` (called before it closes)."""
        with self._conn_lock:
            self._idle.discard(conn)

    def server_close(self):
        with self._conn_lock:
            self.closing = True
            # under the lock, so no socket closes mid-shutdown: a handler
            # leaves this set (forget) before it closes its socket
            for conn in self._idle:
                try:
                    conn.shutdown(socket.SHUT_RDWR)  # wakes its blocked read
                except OSError:  # the client hung up first
                    pass
            self._idle.clear()
        super().server_close()  # closes the listener, joins handler threads


class ServiceServer:
    """A bound daemon instance; tests run it in a thread, ``serve`` runs
    it in the foreground with signal handling."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_shards: int | None = None,
        job_workers: int = 2,
        tune_dir: str | None = None,
    ):
        self.service = ReproService(
            pool=EnginePool(max_shards=max_shards),
            job_workers=job_workers,
            tune_dir=tune_dir,
        )
        self.httpd = _HTTPServer((host, port), _Handler)
        self.httpd.service = self.service  # type: ignore[attr-defined]
        self.service.shutdown_callback = self.request_shutdown
        self._shutdown_started = threading.Lock()

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        self.httpd.serve_forever(poll_interval=0.1)

    def request_shutdown(self) -> None:
        """Stop the accept loop from any thread (idempotent).

        ``shutdown()`` must not run on a thread currently serving a
        request of this server (deadlock with ``serve_forever``), so it
        is always dispatched to a helper thread.
        """
        if not self._shutdown_started.acquire(blocking=False):
            return
        threading.Thread(
            target=self.httpd.shutdown, name="repro-serve-shutdown", daemon=True
        ).start()

    def close(self, drain_jobs: bool = True) -> None:
        """Close idle connections, drain request threads and the job
        queue; release the socket."""
        self.httpd.server_close()  # joins in-flight request threads
        self.service.jobs.stop(wait=drain_jobs)


def serve(
    host: str = "127.0.0.1",
    port: int = 7521,
    max_shards: int | None = None,
    job_workers: int = 2,
    trace_json: str | None = None,
    tune_dir: str | None = None,
) -> int:
    """Run the daemon in the foreground until SIGTERM/SIGINT or a
    ``shutdown`` request; returns a CLI exit code."""
    api.preload()  # no request pays a first-use import
    installed = None
    if obs.current_session() is None:
        sinks = [obs.JsonlSink(trace_json)] if trace_json else []
        installed = obs.install(*sinks)

    server = ServiceServer(
        host=host, port=port, max_shards=max_shards,
        job_workers=job_workers, tune_dir=tune_dir,
    )

    def _signal_shutdown(signum, frame):
        obs.counter("service.signals")
        server.request_shutdown()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _signal_shutdown)
        except ValueError:  # pragma: no cover - not the main thread
            pass

    print(f"repro service listening on {server.url}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.close(drain_jobs=True)
        for signum, old in previous.items():
            signal.signal(signum, old)
        if installed is not None:
            # flushes and closes the JSONL trace sink — the artifact is
            # complete even when the daemon dies to a signal
            obs.uninstall()
    print("repro service stopped", flush=True)
    return 0
