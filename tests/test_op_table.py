"""One op table: the request dataclass, the ``*_op`` keywords and the
CLI flags of every pipeline op agree on names and defaults.

The CLI's flags are written by hand (``--no-cache``, ``--beam``,
repeated ``-p`` are a human format, not the wire schema), so nothing
derives them from :data:`repro.api.OPS` — this test is what keeps them
in step with it.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro import api, cli

#: per op: the CLI invocation with every optional flag left out, and the
#: request fields its positionals/required flags set
MINIMAL = {
    "analyze": (["deps", "examples/cholesky.loop"], {}),
    "check": (["check", "examples/cholesky.loop", "reverse(K)"],
              {"spec": "reverse(K)"}),
    "transform": (["transform", "examples/cholesky.loop", "skew(I,K,1)"],
                  {"spec": "skew(I,K,1)"}),
    "complete": (["complete", "examples/cholesky.loop", "--lead", "K"],
                 {"lead": "K"}),
    "run": (["run", "examples/cholesky.loop"], {}),
    "tune": (["tune", "examples/cholesky.loop"], {}),
    "explain": (["explain", "examples/cholesky.loop"], {}),
}

#: request fields no CLI flag sets, per op
DAEMON_ONLY: dict[str, set[str]] = {op: set() for op in api.OPS}
#: accepted and ignored (output is always simplified); kept only because
#: the frozen benchmark ledger still sends it
DAEMON_ONLY["transform"] = {"simplify"}


def request_defaults(op: str) -> dict:
    out = {}
    for f in dataclasses.fields(api.OPS[op].request):
        if f.default is not dataclasses.MISSING:
            out[f.name] = f.default
        elif f.default_factory is not dataclasses.MISSING:
            out[f.name] = f.default_factory()
    return out


def keyword_defaults(op: str) -> tuple[set[str], dict]:
    """Parameter names of the op's function and their defaults.  An op
    that forwards ``**keywords`` to the library function it wraps
    (``tune``, ``explain_program``) takes names and defaults from it."""
    from repro.explain import explain_program
    from repro.tune import tune

    forwarded = {"tune": tune, "explain": explain_program}
    names: set[str] = set()
    defaults: dict = {}
    for fn in (forwarded.get(op), api.OPS[op].fn):
        if fn is None:
            continue
        for p in inspect.signature(fn).parameters.values():
            if p.kind is p.VAR_KEYWORD:
                continue
            names.add(p.name)
            if p.default is not p.empty:
                defaults[p.name] = p.default
    return names, defaults


class Rendered:
    """What a ``cmd_*`` function reads off any op's result."""

    exit_code = 0
    ok = True

    def render(self) -> str:
        return ""


def nothing_given(value):
    """``None`` and an empty container both mean "not given"."""
    return None if value in ((), [], {}) else value


@pytest.mark.parametrize("op", sorted(api.OPS))
def test_request_defaults_match_op_keywords(op):
    names, defaults = keyword_defaults(op)
    for field, default in request_defaults(op).items():
        if field == "name":  # applied to the program by api.execute
            continue
        assert field in names, f"{op}: {field} is not a keyword of the op function"
        if field in defaults:
            assert nothing_given(defaults[field]) == nothing_given(default), (
                f"{op}.{field}"
            )
    assert set(api.OPS[op].context) <= names


@pytest.mark.parametrize("op", sorted(api.OPS))
def test_cli_defaults_match_request_defaults(op, monkeypatch, capsys):
    """Run the subcommand with no optional flag and capture the field
    dict it hands to ``api.execute``: every request field is there (so
    it is settable from the CLI) and carries the request's default."""
    seen = {}

    def capture(op_name, program, fields, **context):
        seen[op_name] = (program, dict(fields))
        return Rendered()

    monkeypatch.setattr(api, "execute", capture)
    monkeypatch.delenv("REPRO_REMOTE", raising=False)
    argv, given = MINIMAL[op]
    cli.main(argv)
    capsys.readouterr()

    expected = {**request_defaults(op), **given}
    expected.pop("program", None)
    program, fields = seen[op]
    if "name" in expected:
        expected["name"] = program.name
    assert set(fields) | DAEMON_ONLY[op] == set(expected)
    for name, value in fields.items():
        assert value == expected[name], f"{op}.{name}"


def test_every_op_has_a_request_and_a_cli_row():
    from repro.requests import REQUESTS

    assert sorted(REQUESTS) == sorted(api.OPS) == sorted(MINIMAL) == sorted(DAEMON_ONLY)
    assert all(api.OPS[op].request is REQUESTS[op] for op in REQUESTS)


def test_explain_phases_have_one_definition():
    from repro import explain

    assert explain.PHASES is api.EXPLAIN_PHASES
