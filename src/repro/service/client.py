"""HTTP client for the transformation service.

Built on ``http.client`` (stdlib only, like the rest of the repo); one
connection per request keeps the client trivially thread-safe — the
daemon lives on a local socket, so connection setup is noise next to
any pipeline op.  All transport failures surface as
:class:`~repro.util.errors.ServiceError`; remote pipeline failures are
relayed with the remote error class name in ``.kind``, so
``repro --remote`` prints the same ``error: ...`` line a local run
would.
"""

from __future__ import annotations

import http.client
import json
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

    ``url`` accepts ``http://host:port`` or bare ``host:port``.
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

    # -- transport -------------------------------------------------------

    def _http(self, method: str, path: str, body: bytes | None = None) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            raw = conn.getresponse().read()
        except (OSError, http.client.HTTPException) as exc:
            raise ServiceError(
                f"cannot reach service at {self.host}:{self.port}: {exc}",
                kind="ServiceUnreachable",
            ) from None
        finally:
            conn.close()
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
