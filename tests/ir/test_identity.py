"""Program identity: one parse→print canonical text and its SHA-256.

The service shards by this key and the tune store hashes the same text,
so formatting variants of one program must share it and distinct
programs must not — over the whole benchmark zoo, not one example.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest

from repro import kernels
from repro.codegen import generate_code
from repro.ir import (
    canonical_text, canonicalize, parse_program, program_key, program_to_str,
)
from repro.transform.spec import parse_schedule
from repro.tune.store import TuneStore
from repro.util.errors import ParseError

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from ledger import zoo  # noqa: E402


def variants(text: str) -> list[str]:
    """Surface rewrites the parser reads as the same program: comments,
    indentation, blank lines, operator spacing, `end do` for `enddo`."""
    commented = "! a variant\n" + "\n".join(
        f"{line}   # trailing comment" for line in text.splitlines()
    )
    indented = "\n\n".join("\t" + line for line in text.splitlines())
    packed = re.sub(r" ([-+*/]) ", r"\1", text).replace(", ", ",")
    spelled = re.sub(r"\benddo\b", "end do", text)
    return [commented, indented, packed, spelled]


def key_of(source) -> str:
    return program_key(canonical_text(source))


@pytest.mark.parametrize("name", sorted(zoo.KERNELS))
def test_formatting_variants_share_one_key(name):
    program = getattr(kernels, name)()
    key = key_of(program)
    text = program_to_str(program)
    for variant in variants(text):
        assert variant != text
        assert key_of(variant) == key
        _, canon = canonicalize(variant)
        assert program_key(canon) == key
        assert TuneStore.key_for(variant, {"N": 8}) == TuneStore.key_for(program, {"N": 8})


def test_distinct_zoo_programs_have_distinct_keys():
    keys = {key_of(getattr(kernels, name)()) for name in zoo.KERNELS}
    assert len(keys) == len(zoo.KERNELS)


def test_a_one_token_change_is_a_new_program():
    text = program_to_str(kernels.cholesky())
    changed = text.replace("sqrt(", "f(", 1)
    assert changed != text
    assert key_of(changed) != key_of(text)


def test_canonical_form_is_a_fixed_point_on_source_programs():
    for name in zoo.KERNELS:
        canon = canonical_text(getattr(kernels, name)())
        program, again = canonicalize(canon)
        assert again == canon
        assert parse_program(again, program.name) == program


@pytest.mark.parametrize("name, spec, why", [
    ("cholesky", "tile(K,4)", "nested max(min(...)) bound"),
    ("triangular_solve", "skew(J,I,1)", "guard"),
])
def test_generated_text_the_parser_rejects_keys_by_its_printed_text(name, spec, why):
    """Only source programs promise a round trip (docs/LANGUAGE.md); a
    generated program the parser rejects keys by its printed text."""
    sched = parse_schedule(getattr(kernels, name)(), spec)
    generated = generate_code(sched.program, sched.matrix, sched.deps).program
    text = program_to_str(generated)
    with pytest.raises(ParseError):
        canonicalize(text)
    assert canonical_text(generated) == text
    assert canonical_text(text) == text
