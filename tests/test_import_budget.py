"""The import graph follows the pipeline's data dependences.

An analysis command (``deps`` / ``check`` / ``transform`` / ``complete``)
is exact integer arithmetic: it must load neither numpy nor any layer it
does not run.  Each case runs in a fresh interpreter and the assertions
are counts and set membership, never timings, so the test is
deterministic.  ``python -X importtime -c "import repro.cli"`` shows
where a regression came from.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CHOLESKY = "examples/cholesky.loop"

#: what an analysis command must never load — on top of *no* third-party
#: distribution at all (the array library, and the graph library
#: ``analysis/graph.py`` once imported, are the two that used to be)
FORBIDDEN = (
    "numpy", "multiprocessing", "concurrent.futures",
    "repro.interp.executor", "repro.backend.lower", "repro.tune",
    "repro.service", "repro.fuzz", "repro.symbolic",
)
MAX_MODULES = 220

PROBE = """
import contextlib, io, json, sys
from repro.cli import main

at_startup = set(sys.modules)  # whatever this environment's site hooks load
argv = json.loads(sys.argv[1])
out, code = io.StringIO(), None
if argv:
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
third_party = {m.partition(".")[0] for m in set(sys.modules) - at_startup}
third_party -= set(sys.stdlib_module_names) | {"repro"}
json.dump({"modules": sorted(sys.modules), "third_party": sorted(third_party),
           "stdout": out.getvalue(), "code": code}, sys.stdout)
"""


def fresh(script: str, *argv: str) -> str:
    """Standard output of ``script`` run in a new interpreter at the repo
    root, with ``src/`` importable."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return proc.stdout


def probe(argv: list[str]) -> dict:
    """``main(argv)`` in a fresh interpreter (just ``import repro.cli``
    for an empty ``argv``): loaded modules, the third-party top-level
    packages among them, stdout and exit code."""
    return json.loads(fresh(PROBE, json.dumps(argv)))


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["deps", CHOLESKY],
        ["check", CHOLESKY, "permute(K,I)"],
        ["transform", CHOLESKY, "tile(K,4)"],
        ["complete", CHOLESKY, "--lead", "K"],
    ],
    ids=["import", "deps", "check", "transform", "complete"],
)
def test_analysis_commands_stay_inside_the_budget(argv):
    got = probe(argv)
    loaded = set(got["modules"])
    assert got["third_party"] == []
    assert [m for m in FORBIDDEN if m in loaded] == []
    assert len(loaded) <= MAX_MODULES, sorted(loaded)
    if argv:
        assert got["stdout"].strip()


def test_version_loads_no_pipeline_module():
    """``python -m repro --version`` answers before the CLI is imported;
    ``main(["--version"])`` prints the same line."""
    from repro import __version__

    script = (
        "import json, runpy, sys\n"
        "sys.argv = ['repro', '--version']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )
    line, modules = fresh(script).splitlines()
    assert line == f"repro {__version__}"
    assert set(json.loads(modules)) <= {
        "repro", "repro.__main__", "repro.util", "repro.util.errors", "repro.util.lazy"}

    got = probe(["--version"])
    assert (got["code"], got["stdout"]) == (0, line + "\n")


@pytest.mark.parametrize(
    "argv, needs, golden",
    [
        (["run", CHOLESKY, "-p", "N=5"],
         ("numpy", "repro.interp.executor"), "cli_run_cholesky_N5.txt"),
        (["check", "examples/syrk.loop", "reverse(K)", "--symbolic"],
         ("repro.symbolic.fractal",), "cli_check_symbolic_syrk.txt"),
    ],
    ids=["run", "check-symbolic"],
)
def test_heavier_commands_load_what_they_need(argv, needs, golden):
    """...and print what they printed before the import graph was cut
    (``tests/golden/`` holds the parent commit's stdout)."""
    got = probe(argv)
    assert got["code"] == 0
    assert [m for m in needs if m not in got["modules"]] == []
    assert got["stdout"] == (ROOT / "tests" / "golden" / golden).read_text()


def test_serve_preloads_the_pipeline():
    """A daemon must not import on a request: ``api.preload()`` (called
    by ``repro serve`` at start-up) leaves nothing for an op to load."""
    script = (
        "import sys\n"
        "from repro import api, obs\n"
        "from repro.ir import parse_program\n"
        "api.preload()\n"
        "before = set(sys.modules)\n"
        f"program = parse_program(open({CHOLESKY!r}).read())\n"
        "api.analyze_op(program, refine=True)\n"
        "api.check_op(program, 'permute(K,I)', oracle='symbolic')\n"
        "api.transform_op(program, 'tile(K,4)', simplify=True)\n"
        "api.complete_op(program, 'K')\n"
        "api.run_op(program, {'N': 4}, backend='source-par').render()\n"
        "small = parse_program(open('examples/trsv.loop').read())\n"
        "api.tune_op(small, {'N': 8}, use_cache=False, depth=1, top_k=1,\n"
        "            beam_width=1, symbolic=True)\n"
        "with obs.session():\n"
        "    api.explain_op(program, spec='permute(K,I)', lead='K')\n"
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('repro')))\n"
    )
    assert fresh(script).strip() == "[]"
