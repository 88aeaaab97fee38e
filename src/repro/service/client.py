"""HTTP client for the transformation service.

Built on ``http.client`` (stdlib only, like the rest of the repo).
Each thread keeps one persistent HTTP/1.1 connection to the daemon, so
a result-cache hit costs one request and one reply, not a TCP
handshake and a fresh server thread, and threads sharing a client
never read each other's replies.  A kept-alive connection the daemon
has since closed (it shut down or restarted) fails on the next send or
before a status line arrives; the client then reconnects once and
resends.  All transport failures surface as
:class:`~repro.util.errors.ServiceError`; remote pipeline failures are
relayed with the remote error class name in ``.kind``, so
``repro --remote`` prints the same ``error: ...`` line a local run
would.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
from typing import Any

from repro.service.protocol import (
    PROTOCOL_VERSION, REQUEST_TYPES, Response, encode_request,
)
from repro.util.errors import ServiceError

__all__ = ["ServiceClient"]


class ServiceClient:
    """Talks to one ``repro serve`` daemon.

    ``url`` accepts ``http://host:port`` or bare ``host:port``.  Close
    the client (or use it as a context manager) to release its
    connections; a request after :meth:`close` reconnects.
    """

    def __init__(self, url: str, timeout: float = 300.0):
        if "//" not in url:
            url = "http://" + url
        parsed = urllib.parse.urlparse(url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ServiceError(
                f"service URL must be http://host:port, got {url!r}"
            )
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout = timeout
        self._lock = threading.Lock()
        self._conns: dict[threading.Thread, http.client.HTTPConnection] = {}

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close every thread's connection."""
        with self._lock:
            conns, self._conns = list(self._conns.values()), {}
        for conn in conns:
            conn.close()

    # -- transport -------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection (``http.client`` opens it on first
        use and after a close)."""
        me = threading.current_thread()
        with self._lock:
            conn = self._conns.get(me)
            if conn is None:
                for gone in [t for t in self._conns if not t.is_alive()]:
                    self._conns.pop(gone).close()
                conn = self._conns[me] = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
        return conn

    def _http(self, method: str, path: str, body: bytes | None = None) -> dict:
        headers = {"Content-Type": "application/json"} if body else {}
        conn = self._connection()
        reused = conn.sock is not None
        while True:
            response = None
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                if reused and response is None and isinstance(exc, ConnectionError):
                    # reset, broken pipe or EOF before a status line: the
                    # daemon closed this kept-alive connection while it
                    # sat idle, so reconnect once and resend
                    reused = False
                    continue
                raise ServiceError(
                    f"cannot reach service at {self.host}:{self.port}: {exc}",
                    kind="ServiceUnreachable",
                ) from None
        try:
            return json.loads(raw)
        except json.JSONDecodeError:
            raise ServiceError(
                f"service at {self.host}:{self.port} answered non-JSON"
            ) from None

    def request_full(self, op: str, **args: Any) -> Response:
        """One protocol round trip for any op — ``args`` are the fields
        of its request dataclass, e.g. ``request_full("check",
        program=src, spec="reverse(I)")`` — returning the full
        :class:`Response` (tests assert on ``cached`` / ``coalesced``)."""
        cls = REQUEST_TYPES.get(op)
        if cls is None:
            raise ServiceError(f"unknown op {op!r}")
        wire = encode_request(cls(**args))
        return Response.from_wire(self._http("POST", "/v1", json.dumps(wire).encode()))

    def request(self, op: str, **args: Any) -> dict:
        """One round trip; the result payload or a raised ServiceError."""
        return self.request_full(op, **args).unwrap()

    # -- jobs ------------------------------------------------------------

    def submit(self, op: str, **args: Any) -> str:
        return self.request("submit", submit_op=op, args=args)["job_id"]

    def job_poll(self, job_id: str) -> dict:
        return self.request("job_poll", job_id=job_id)

    def job_result(self, job_id: str) -> dict:
        return self.request("job_result", job_id=job_id)

    def job_cancel(self, job_id: str) -> bool:
        return bool(self.request("job_cancel", job_id=job_id)["cancelled"])

    def job_wait(
        self, job_id: str, timeout: float = 300.0, interval: float = 0.05
    ) -> dict:
        """Poll until the job leaves pending/running, then fetch its
        result (raising the relayed failure for error/cancelled jobs)."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.job_poll(job_id)["status"]
            if status not in ("pending", "running"):
                return self.job_result(job_id)
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {status} after {timeout:.0f}s",
                    kind="JobTimeout",
                )
            time.sleep(interval)

    # -- daemon management ----------------------------------------------

    def ping(self) -> dict:
        return self.request("ping")

    def metrics(self) -> dict:
        return Response.from_wire(
            {"protocol": PROTOCOL_VERSION, "ok": True,
             "result": self._http("GET", "/metrics")}
        ).unwrap()

    def healthz(self) -> bool:
        try:
            return bool(self._http("GET", "/healthz").get("ok"))
        except ServiceError:
            return False

    def shutdown(self) -> None:
        self.request("shutdown")

    def wait_ready(self, timeout: float = 30.0, interval: float = 0.05) -> None:
        """Block until the daemon answers ``/healthz`` (boot helper)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.healthz():
                return
            time.sleep(interval)
        raise ServiceError(
            f"service at {self.host}:{self.port} not ready after {timeout:.0f}s",
            kind="ServiceUnreachable",
        )
