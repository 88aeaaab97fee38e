"""The transformation catalogue: one record per kind, read by the spec
parser, the tuner's search space, the fuzz sampler and the shrinker.

Everything the tuner prints is a spec the parser rebuilds exactly, the
inverse pairs of §4 compose to the identity, distribution and fusion
undo each other, a path addresses loops a name cannot, and every
record's rendered spec parses back to itself.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro import kernels
from repro.dependence import analyze_dependences
from repro.instance import Layout
from repro.ir import program_to_str
from repro.linalg import IntMatrix
from repro.transform.spec import (
    CATALOGUE, KINDS, SPEC_GRAMMAR, parse_part, parse_schedule, parse_spec,
)
from repro.transform.tiling import TILE_LADDER, fuse_legal
from repro.tune.space import enumerate_candidates
from repro.util.errors import ReproError

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from ledger import zoo  # noqa: E402

ZOO = sorted(zoo.KERNELS)


def _sites(name: str, kind: str):
    program = getattr(kernels, name)()
    layout = Layout(program)
    return program, layout, list(KINDS[kind].sites(layout, analyze_dependences(program)))


@pytest.mark.parametrize("tiles", [None, TILE_LADDER], ids=["plain", "tiled"])
@pytest.mark.parametrize("name", ZOO)
def test_every_tuner_candidate_is_a_spec_the_parser_rebuilds(name, tiles):
    """The candidate's structural origin plus its catalogue steps (a
    ``lead`` is a completion, not a transformation) give back its
    context's program text and, without a lead, its matrix."""
    program = getattr(kernels, name)()
    checked = 0
    for cand in enumerate_candidates(program, tile_sizes=tiles):
        steps = tuple(s for s in cand.steps if s.partition("(")[0] in KINDS)
        spec = "; ".join(cand.context.origin + steps)
        if not spec:
            continue
        schedule = parse_schedule(program, spec)
        assert program_to_str(schedule.program) == cand.context.text, spec
        if cand.lead is None:
            assert schedule.matrix == cand.matrix, spec
        checked += 1
    assert checked


@pytest.mark.parametrize("name", ZOO)
def test_inverse_pairs_compose_to_the_identity(name):
    program, layout, _ = _sites(name, "reverse")
    identity = IntMatrix.identity(layout.dimension)
    specs = [f"{KINDS['permute'].render(*s)}; {KINDS['permute'].render(*s)}"
             for s in _sites(name, "permute")[2]]
    specs += [f"{KINDS['reverse'].render(*s)}; {KINDS['reverse'].render(*s)}"
              for s in _sites(name, "reverse")[2]]
    specs += [f"{KINDS['skew'].render(a, b, f)}; {KINDS['skew'].render(a, b, -f)}"
              for a, b, f in _sites(name, "skew")[2]]
    for spec in specs:
        assert parse_spec(layout, spec).matrix == identity, spec


def test_a_legal_distribution_then_fuse_gives_back_the_source():
    undone = 0
    for name in ZOO:
        program, _, sites = _sites(name, "distribute")
        for path, split in sites:
            distribute = KINDS["distribute"].render(path, split)
            if not parse_schedule(program, distribute).structural_legal:
                continue
            back = parse_schedule(program, f"{distribute}; {KINDS['fuse'].render(path)}")
            assert back.structural_legal
            assert program_to_str(back.program) == program_to_str(program), (name, path)
            undone += 1
    assert undone >= 3  # running_example, gemver_like, trsv at least


def test_a_path_addresses_loops_that_share_a_name():
    program = kernels.sweep_pair()
    schedule = parse_schedule(program, "fuse(0)")
    assert schedule.structural_legal == fuse_legal(program, (0,))
    assert len(schedule.program.body) == 1
    with pytest.raises(ReproError, match="ambiguous"):
        parse_schedule(program, "fuse(I)")


def test_name_and_path_of_one_loop_are_one_step():
    program = kernels.cholesky()
    by_name = parse_schedule(program, "fuse(I); permute(K,I)")
    by_path = parse_schedule(program, "fuse(0.1); permute(0,0.1)")
    assert program_to_str(by_name.program) == program_to_str(by_path.program)
    assert by_name.matrix == by_path.matrix
    assert by_name.structural_legal == by_path.structural_legal


def _sample_args(kind):
    """One argument per parameter, by type; loop arguments alternate a
    name and a path so both forms round-trip."""
    values = {"loop": ["I", (0, 1)], "label": ["S1"], "int": [3, -2], "int...": [0, 2, 1]}
    args = []
    for param in kind.params.split():
        t = param.partition(":")[2] or "loop"
        args.extend(values[t] if t == "int..." else [values[t][len(args) % len(values[t])]])
    return tuple(args)


@pytest.mark.parametrize("kind", CATALOGUE, ids=lambda k: k.name)
def test_each_record_renders_a_spec_that_parses_back_to_it(kind):
    args = _sample_args(kind)
    text = kind.render(*args)
    assert parse_part(text) == (kind, args)
    for alias in kind.aliases:
        assert parse_part(text.replace(kind.name, alias, 1)) == (kind, args)
    assert kind.signature in SPEC_GRAMMAR


def test_the_errors_name_the_catalogue():
    with pytest.raises(ReproError) as exc:
        parse_part("twist(I,J)")
    assert all(k.name in str(exc.value) for k in CATALOGUE)
    with pytest.raises(ReproError, match=r"skew takes skew\(target,source,factor\)"):
        parse_part("skew(I,J)")
    with pytest.raises(ReproError, match="must precede"):
        parse_schedule(kernels.cholesky(), "permute(K,I); fuse(I)")
