"""Wire protocol of the transformation service: typed and versioned.

A request on the wire is one JSON object::

    {"protocol": 1, "op": "analyze", "args": {"program": "...", ...}}

and every response is::

    {"protocol": 1, "ok": true,  "result": {...},
     "cached": false, "coalesced": false, "served_ns": 1234567}
    {"protocol": 1, "ok": false, "error": "...", "error_kind": "ParseError"}

Each operation has a frozen request dataclass; the ``args`` object is
exactly its non-``op`` fields.  The seven pipeline ops' request classes
are defined in :mod:`repro.requests` (one definition shared with the
CLI and the daemon's dispatch through :data:`repro.api.OPS`) and
re-exported here; the job-queue and management requests live in this
module.  :func:`decode_request` validates the protocol version, the op
name, the argument names/requiredness and every value against its
field's declared type, and returns the typed request — the server never
touches raw dicts.  The ``result`` payload of a pipeline op is the
``to_payload()`` dict of the op's result class, so a client
reconstructs the same dataclass the CLI renders locally.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from dataclasses import dataclass
from typing import Any, ClassVar, Mapping

from repro.requests import (
    REQUESTS, AnalyzeRequest, CheckRequest, CompleteRequest, ExplainRequest,
    RunRequest, TransformRequest, TuneRequest,
)
from repro.util.errors import ServiceError

__all__ = [
    "PROTOCOL_VERSION", "REQUEST_TYPES", "Response",
    "AnalyzeRequest", "CheckRequest", "TransformRequest", "CompleteRequest",
    "RunRequest", "TuneRequest", "ExplainRequest",
    "SubmitRequest", "JobPollRequest", "JobResultRequest", "JobCancelRequest",
    "PingRequest", "MetricsRequest", "ShutdownRequest",
    "encode_request", "decode_request",
]

#: Bumped on any incompatible change to request args or result payloads.
PROTOCOL_VERSION = 1


@dataclass(frozen=True)
class SubmitRequest:
    """Enqueue a pipeline op on the async job queue; returns a job id
    immediately (docs/SERVICE.md)."""

    op: ClassVar[str] = "submit"
    submit_op: str = ""
    args: dict[str, Any] = dataclasses.field(default_factory=dict)


@dataclass(frozen=True)
class JobPollRequest:
    op: ClassVar[str] = "job_poll"
    job_id: str = ""


@dataclass(frozen=True)
class JobResultRequest:
    op: ClassVar[str] = "job_result"
    job_id: str = ""


@dataclass(frozen=True)
class JobCancelRequest:
    op: ClassVar[str] = "job_cancel"
    job_id: str = ""


@dataclass(frozen=True)
class PingRequest:
    op: ClassVar[str] = "ping"


@dataclass(frozen=True)
class MetricsRequest:
    op: ClassVar[str] = "metrics"


@dataclass(frozen=True)
class ShutdownRequest:
    """Ask the daemon to shut down gracefully (drain, flush, exit) —
    the HTTP twin of SIGTERM, so tests and CI need no signals."""

    op: ClassVar[str] = "shutdown"


REQUEST_TYPES: dict[str, type] = {
    cls.op: cls
    for cls in (
        *REQUESTS.values(),
        SubmitRequest, JobPollRequest, JobResultRequest, JobCancelRequest,
        PingRequest, MetricsRequest, ShutdownRequest,
    )
}


def encode_request(req) -> dict:
    """Typed request → wire dict.

    A field that holds its default stays off the wire
    (:func:`decode_request` fills it back in), so a field removed later
    refuses only the clients that set it."""
    args = {}
    for f in dataclasses.fields(req):
        v = getattr(req, f.name)
        if f.default is not dataclasses.MISSING and v == f.default:
            continue
        if f.default_factory is not dataclasses.MISSING and v == f.default_factory():
            continue
        if isinstance(v, tuple):
            v = list(v)
        args[f.name] = v
    return {"protocol": PROTOCOL_VERSION, "op": req.op, "args": args}


def _conforms(value: Any, tp: Any) -> bool:
    """Whether a JSON value has the declared field type ``tp``, without
    coercion: ``"3"`` is not an int, and neither is ``true``."""
    if tp is Any:
        return True
    origin, params = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        return any(_conforms(value, option) for option in params)
    if origin is dict:
        return isinstance(value, dict) and all(
            _conforms(k, params[0]) and _conforms(v, params[1])
            for k, v in value.items()
        )
    if origin is tuple:  # homogeneous `tuple[X, ...]`, a JSON list on the wire
        return isinstance(value, (list, tuple)) and all(
            _conforms(item, params[0]) for item in value
        )
    if tp is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, tp)


# resolving string annotations evaluates them; once per class, not per request
_field_types = functools.cache(typing.get_type_hints)


def decode_request(wire: Mapping[str, Any]):
    """Wire dict → typed request, validating version, op and args."""
    if not isinstance(wire, Mapping):
        raise ServiceError("request body must be a JSON object")
    proto = wire.get("protocol")
    if proto != PROTOCOL_VERSION:
        raise ServiceError(
            f"unsupported protocol version {proto!r} (this daemon speaks "
            f"{PROTOCOL_VERSION})"
        )
    op = wire.get("op")
    cls = REQUEST_TYPES.get(op)
    if cls is None:
        raise ServiceError(
            f"unknown op {op!r} (known: {', '.join(sorted(REQUEST_TYPES))})"
        )
    args = wire.get("args") or {}
    if not isinstance(args, Mapping):
        raise ServiceError(f"args for {op!r} must be a JSON object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(args) - names)
    if unknown:
        raise ServiceError(f"unknown argument(s) for {op!r}: {', '.join(unknown)}")
    kwargs = dict(args)
    declared = _field_types(cls)
    for name, value in args.items():
        tp = declared[name]
        if not _conforms(value, tp):
            want = tp.__name__ if isinstance(tp, type) else str(tp)
            raise ServiceError(
                f"argument {name!r} of {op!r} must be {want}, got {value!r}"
            )
        if isinstance(value, list):
            kwargs[name] = tuple(value)
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ServiceError(f"bad arguments for {op!r}: {exc}") from None


@dataclass
class Response:
    """One service response; ``result`` is the op's payload dict."""

    ok: bool
    result: dict | None = None
    error: str | None = None
    error_kind: str | None = None
    cached: bool = False
    coalesced: bool = False
    served_ns: int | None = None
    protocol: int = PROTOCOL_VERSION

    def to_wire(self) -> dict:
        wire: dict[str, Any] = {"protocol": self.protocol, "ok": self.ok}
        if self.ok:
            wire["result"] = self.result
            wire["cached"] = self.cached
            wire["coalesced"] = self.coalesced
        else:
            wire["error"] = self.error
            wire["error_kind"] = self.error_kind
        if self.served_ns is not None:
            wire["served_ns"] = self.served_ns
        return wire

    @classmethod
    def from_wire(cls, wire: Mapping[str, Any]) -> "Response":
        if not isinstance(wire, Mapping) or "ok" not in wire:
            raise ServiceError("malformed service response")
        proto = wire.get("protocol")
        if proto != PROTOCOL_VERSION:
            raise ServiceError(
                f"service answered with unsupported protocol {proto!r}"
            )
        return cls(
            ok=bool(wire["ok"]),
            result=wire.get("result"),
            error=wire.get("error"),
            error_kind=wire.get("error_kind"),
            cached=bool(wire.get("cached", False)),
            coalesced=bool(wire.get("coalesced", False)),
            served_ns=wire.get("served_ns"),
        )

    def unwrap(self) -> dict:
        """The result payload, or the remote failure as a
        :class:`ServiceError` carrying the remote error class name."""
        if not self.ok:
            raise ServiceError(
                self.error or "service request failed",
                kind=self.error_kind or "ServiceError",
            )
        return self.result or {}
