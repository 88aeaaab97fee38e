"""Wire codec: typed round trips, version gating, argument validation."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.service.protocol import (
    PROTOCOL_VERSION, REQUEST_TYPES, AnalyzeRequest, Response, RunRequest,
    TuneRequest, decode_request, encode_request,
)
from repro.util.errors import ReproError, ServiceError

SRC = "param N\nreal A(0:N)\ndo I = 1, N\n  S1: A(I) = f(I)\nenddo"


def wire_roundtrip(req):
    # through actual JSON, like the socket would
    return decode_request(json.loads(json.dumps(encode_request(req))))


def test_every_request_type_roundtrips():
    samples = {
        "analyze": dict(program=SRC, refine=True, sample_params=("N=4",), jobs=2),
        "check": dict(program=SRC, spec="reverse(I)"),
        "transform": dict(program=SRC, spec="skew(I,I,0)", simplify=True),
        "complete": dict(program=SRC, lead="I"),
        "run": dict(program=SRC, params={"N": 8}, backend="source", trace=False),
        "tune": dict(program=SRC, name="k", params={"N": 16},
                     tile_sizes=(8, 16), top_k=1),
        "explain": dict(program=SRC, name="k", phase="legality",
                        spec="reverse(I)", params={"N": 4}),
        "submit": dict(submit_op="analyze", args={"program": SRC}),
        "job_poll": dict(job_id="job-1"),
        "job_result": dict(job_id="job-1"),
        "job_cancel": dict(job_id="job-1"),
        "ping": {},
        "metrics": {},
        "shutdown": {},
    }
    assert sorted(samples) == sorted(REQUEST_TYPES)
    for op, kwargs in samples.items():
        req = REQUEST_TYPES[op](**kwargs)
        back = wire_roundtrip(req)
        assert back == req, op
        assert back.op == op


def test_wrong_protocol_version_rejected():
    wire = encode_request(AnalyzeRequest(program=SRC))
    wire["protocol"] = PROTOCOL_VERSION + 1
    with pytest.raises(ServiceError, match="protocol"):
        decode_request(wire)


def test_unknown_op_rejected():
    with pytest.raises(ServiceError, match="unknown op"):
        decode_request({"protocol": PROTOCOL_VERSION, "op": "frobnicate"})


def test_unknown_argument_rejected():
    wire = encode_request(AnalyzeRequest(program=SRC))
    wire["args"]["bogus"] = 1
    with pytest.raises(ServiceError, match="bogus"):
        decode_request(wire)


def test_missing_required_argument_rejected():
    with pytest.raises(ServiceError, match="bad arguments"):
        decode_request({"protocol": PROTOCOL_VERSION, "op": "analyze", "args": {}})


def test_non_object_body_rejected():
    with pytest.raises(ServiceError):
        decode_request(["not", "a", "dict"])
    with pytest.raises(ServiceError, match="args"):
        decode_request(
            {"protocol": PROTOCOL_VERSION, "op": "analyze", "args": [1]}
        )


def test_json_lists_become_tuples():
    wire = encode_request(TuneRequest(program=SRC, tile_sizes=(8, 16)))
    assert wire["args"]["tile_sizes"] == [8, 16]  # JSON-safe on the wire
    back = decode_request(json.loads(json.dumps(wire)))
    assert back.tile_sizes == (8, 16)


def test_requests_are_frozen():
    req = RunRequest(program=SRC)
    with pytest.raises(dataclasses.FrozenInstanceError):
        req.backend = "source"


def test_response_roundtrip_ok_and_error():
    ok = Response(ok=True, result={"x": 1}, cached=True, served_ns=5)
    back = Response.from_wire(json.loads(json.dumps(ok.to_wire())))
    assert back.result == {"x": 1} and back.cached and back.served_ns == 5
    assert back.unwrap() == {"x": 1}

    err = Response(ok=False, error="boom", error_kind="ParseError")
    back = Response.from_wire(json.loads(json.dumps(err.to_wire())))
    with pytest.raises(ServiceError, match="boom") as exc_info:
        back.unwrap()
    assert exc_info.value.kind == "ParseError"
    assert isinstance(exc_info.value, ReproError)


def test_response_rejects_wrong_version_and_garbage():
    with pytest.raises(ServiceError):
        Response.from_wire({"ok": True, "protocol": PROTOCOL_VERSION + 1})
    with pytest.raises(ServiceError):
        Response.from_wire({"protocol": PROTOCOL_VERSION})


ILL_TYPED = [
    ("analyze", {"program": 5}, "program"),
    ("run", {"program": SRC, "params": {"N": "abc"}}, "params"),
    ("run", {"program": SRC, "params": [1, 2]}, "params"),
    ("check", {"program": SRC, "spec": None}, "spec"),
    ("check", {"program": SRC, "spec": ["a"]}, "spec"),
    ("analyze", {"program": SRC, "jobs": "x"}, "jobs"),
    ("analyze", {"program": SRC, "sample_params": "N=5"}, "sample_params"),
    ("tune", {"program": SRC, "top_k": "3"}, "top_k"),
    ("tune", {"program": SRC, "force": 1}, "force"),
    ("tune", {"program": SRC, "depth": True}, "depth"),
]


@pytest.fixture()
def service():
    from repro.service.server import ReproService

    svc = ReproService()
    yield svc
    svc.jobs.stop()


@pytest.mark.parametrize("submitted", [False, True], ids=["direct", "submit"])
@pytest.mark.parametrize("op,args,field", ILL_TYPED)
def test_ill_typed_values_are_rejected_by_name(service, op, args, field, submitted):
    """Values are checked against the field's declared type, never
    coerced — directly, and inside a ``submit`` at submit time."""
    wire = {"protocol": PROTOCOL_VERSION, "op": op, "args": args}
    if submitted:
        wire["op"], wire["args"] = "submit", {"submit_op": op, "args": args}
    resp = service.handle(wire)
    assert not resp.ok and resp.error_kind == "ServiceError"
    assert repr(field) in resp.error and "internal error" not in resp.error
    assert service.jobs.snapshot()["jobs"] == 0


def test_well_typed_values_still_decode():
    req = decode_request({
        "protocol": PROTOCOL_VERSION, "op": "tune",
        "args": {"program": SRC, "params": None, "tile_sizes": [8, 16],
                 "max_candidates": 4},
    })
    assert req.params is None and req.tile_sizes == (8, 16)
    assert req.max_candidates == 4
