"""``repro explain`` shows the run of the command it explains.

Each explain phase calls the op its command calls and renders the
events of that call, so the verdict it prints is the command's verdict:
for every example and lead, ``explain --phase complete`` completes
exactly when ``repro complete`` does and fails with the same text; for
every known (kernel, spec) pair, ``explain --phase legality`` says LEGAL
exactly when ``check`` does.  A daemon's concurrent requests do not
leak into a narrative, and no observability session is needed.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

from repro import api, obs
from repro.cli import main
from repro.ir import program_to_str
from repro.kernels import cholesky, trmm
from repro.service.protocol import PROTOCOL_VERSION

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "golden"
EXAMPLES = sorted((ROOT / "examples").glob("*.loop"))
LEDGER_VERDICTS = json.loads((ROOT / "ledger" / "expected.json").read_text())["verdicts"]


def _verdict_line(text: str) -> str:
    return next(line for line in text.splitlines() if line.startswith("verdict:"))


def _leads():
    for path in EXAMPLES:
        program = api.load_file(str(path))
        for var in dict.fromkeys(loop.var for loop in program.all_loops()):
            yield pytest.param(str(path), var, id=f"{path.stem}-{var}")


@pytest.mark.parametrize("path, lead", list(_leads()))
def test_complete_verdict_is_the_commands(path, lead, capsys):
    rc = main(["complete", path, "--lead", lead])
    err = capsys.readouterr().err
    assert main(["explain", path, "--phase", "complete", "--lead", lead]) == 0
    verdict = _verdict_line(capsys.readouterr().out)
    if rc == 0:
        assert verdict == "verdict: completed"
    else:
        assert rc == 2
        assert err.startswith("error: ")
        assert verdict == "verdict: failed — " + err.removeprefix("error: ").rstrip("\n")


@pytest.mark.parametrize(
    "kernel, spec",
    [(k, s) for k, specs in LEDGER_VERDICTS.items() for s in specs],
)
def test_legality_verdict_is_the_commands(kernel, spec):
    program = api.load_flexible(kernel)
    text = api.explain_op(program, phase="legality", spec=spec).text
    result = api.check_op(program, spec)
    assert _verdict_line(text).startswith(
        "verdict: LEGAL (" if result.legal else "verdict: ILLEGAL ("
    )
    # a fusion prefix gets check's own structural verdict line
    structural = result.render().splitlines()[0]
    assert (structural in text.splitlines()) == bool(result.structural)


def test_trsv_lead_j_golden(capsys, monkeypatch):
    """The permutation/reversal fragment cannot put J outermost in trsv;
    explain says so in the command's words, with the backtracker's
    evidence (§7 distribution-enabled completion is not implemented)."""
    monkeypatch.chdir(ROOT)
    argv = ["explain", "examples/trsv.loop", "--phase", "complete", "--lead", "J"]
    assert main(argv) == 0
    expected = (GOLDEN / "cli_explain_complete_trsv_J.txt").read_text()
    assert capsys.readouterr().out == expected


def test_explain_op_needs_no_session():
    assert obs.current_session() is None
    text = api.explain_op(cholesky(), phase="legality", spec="reverse(K)").text
    assert "(no legality events recorded)" not in text
    assert "verdict: ILLEGAL (12 violated" in text
    assert text.count("\n  reject ") == 12


def test_daemon_explain_holds_only_its_own_events():
    """One daemon thread explains a cholesky legality verdict while
    another keeps the second shard busy with never-cached ``check``
    requests, whose legality events go to the same session."""
    from repro.service.server import ReproService

    spec = "permute(K,I)"
    explain = {
        "protocol": PROTOCOL_VERSION, "op": "explain",
        "args": {"program": program_to_str(cholesky()), "name": "cholesky",
                 "phase": "legality", "spec": spec},
    }
    other = program_to_str(trmm())
    svc = ReproService()
    busy, stop = threading.Event(), threading.Event()
    checks: list = []

    def hammer():
        while not stop.is_set():
            resp = svc.handle({
                "protocol": PROTOCOL_VERSION, "op": "check",
                "args": {"program": other, "spec": f"skew(J,I,{len(checks) + 1})"},
            })
            checks.append(resp.ok and not resp.cached)
            busy.set()

    switch = sys.getswitchinterval()
    with obs.session(obs.MemorySink()):
        expected = api.explain_op(cholesky(), phase="legality", spec=spec).text
        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            busy.wait(60)
            sys.setswitchinterval(1e-5)  # interleave the two threads finely
            texts = [svc.handle(explain).unwrap()["text"] for _ in range(10)]
        finally:
            sys.setswitchinterval(switch)
            stop.set()
            thread.join()
            svc.jobs.stop()
    assert checks and all(checks)
    assert texts == [expected] * 10
