"""Doc truth: every repository path the documentation cites exists, and
no document cites the benchmark result machinery that was deleted in
favour of the ledger (``compare.py``, ``emit.py``, ``BENCH_result.json``,
the opt-in benchmark environment switches)."""

from __future__ import annotations

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DOCS = sorted(
    [ROOT / "README.md", ROOT / "EXPERIMENTS.md", ROOT / "DESIGN.md",
     ROOT / ".claude" / "skills" / "verify" / "SKILL.md", *(ROOT / "docs").glob("*.md")]
)

#: A path token: one of the tracked top-level trees, then path characters
#: (not after `=`: `[program=examples/x.loop_gen]` in a printed span tree
#: is a program name, not a citation).
PATH_TOKEN = re.compile(
    r"(?<![\w./=-])((?:src/repro|benchmarks|ledger|tests|examples|docs)/[\w./-]*)(.?)"
)
#: Written when a run happens, git-ignored: never in a fresh checkout.
GENERATED = ("ledger/out",)
# (the last name is split so that grepping the tree for it stays empty)
DELETED = ("compare.py", "emit.py", "BENCH_result.json", "REPRO_" "BENCH_")


def cited_paths(text: str):
    for token, after in PATH_TOKEN.findall(text):
        token = token.rstrip(".,-")  # sentence punctuation, not path
        if after and after in "*<{" and not token.endswith("/"):
            # a pattern (`benchmarks/bench_*.py`, `ledger/out/<workload>.json`):
            # only its directory is a claim
            token = token.rpartition("/")[0]
        if not token.startswith(GENERATED):
            yield token


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_cited_paths_exist(doc):
    missing = sorted({p for p in cited_paths(doc.read_text()) if not (ROOT / p).exists()})
    assert not missing, f"{doc.relative_to(ROOT)} cites paths that do not exist: {missing}"


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_citation_of_the_deleted_result_machinery(doc):
    text = doc.read_text()
    # `emit.py` must not match e.g. `remit.py`; the others are unambiguous
    found = [name for name in DELETED if re.search(rf"(?<![\w]){re.escape(name)}", text)]
    assert not found, f"{doc.relative_to(ROOT)} still mentions {found}"


def test_the_scan_sees_paths():
    """Guard against a regex that matches nothing and passes vacuously."""
    text = "see `benchmarks/bench_*.py`, src/repro/api.py. and ledger/out/x.json"
    assert list(cited_paths(text)) == ["benchmarks", "src/repro/api.py"]
    assert sum(1 for doc in DOCS for _ in cited_paths(doc.read_text())) > 100
