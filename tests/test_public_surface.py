"""The lazily re-exporting packages still offer their whole surface.

``repro`` and the sub-packages whose eager re-exports used to cross the
numpy boundary resolve their names on first access
(:mod:`repro.util.lazy`); nothing about *what* they export may change.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

LAZY_PACKAGES = (
    "repro", "repro.dependence", "repro.analysis", "repro.interp", "repro.backend",
)
SRC = Path(__file__).resolve().parents[1] / "src"


def fresh(package: str, code: str) -> str:
    """Run ``code`` in a new interpreter — first access happens once."""
    proc = subprocess.run(
        [sys.executable, "-c", code, package], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return proc.stdout.strip()


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_exported_name_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__) > 0
    listed = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None
        assert name in listed


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_type_checking_mirror_names_exactly_what_is_exported(package):
    """The ``if TYPE_CHECKING:`` block is what an IDE sees; it must list
    the same (module, name) pairs the lazy map resolves."""
    module = importlib.import_module(package)
    tree = ast.parse(Path(module.__file__).read_text())
    (guard,) = [n for n in tree.body
                if isinstance(n, ast.If) and getattr(n.test, "id", "") == "TYPE_CHECKING"]
    mirrored = {(n.module, a.name) for n in guard.body for a in n.names}
    assert {name for _, name in mirrored} == set(module.__all__) - {"__version__"}
    for source, name in mirrored:
        assert getattr(module, name) is getattr(importlib.import_module(source), name)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_first_access_imports_caches_and_survives_star_import(package):
    out = fresh(package, (
        "import importlib, sys\n"
        "m = importlib.import_module(sys.argv[1])\n"
        "name = next(n for n in m.__all__ if n != '__version__')\n"
        "assert name not in vars(m), 'resolved before first use'\n"
        "first = getattr(m, name)\n"
        "assert vars(m)[name] is first and getattr(m, name) is first\n"
        "ns = {}\n"
        "exec(f'from {sys.argv[1]} import *', ns)\n"
        "assert all(ns[n] is getattr(m, n) for n in m.__all__)\n"
        "assert all(n in vars(m) for n in m.__all__)\n"
        "print('ok')\n"
    ))
    assert out == "ok"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_attribute_is_an_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")
    with pytest.raises(ImportError):  # `from pkg import x` reports it as such
        exec(f"from {package} import no_such_name", {})


def test_submodules_still_import_through_a_lazy_package():
    """``from repro import api`` falls through ``__getattr__``'s
    AttributeError to a real sub-module import."""
    assert fresh("repro", (
        "from repro import api, obs\n"
        "from repro.analysis import graph\n"
        "import repro.interp.cache\n"
        "print(api.__name__, obs.__name__, graph.__name__, repro.interp.cache.__name__)\n"
    )) == "repro.api repro.obs repro.analysis.graph repro.interp.cache"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_two_threads_racing_on_first_access_get_one_object(package):
    out = fresh(package, (
        "import importlib, sys, threading\n"
        "m = importlib.import_module(sys.argv[1])\n"
        "name = next(n for n in m.__all__ if n != '__version__')\n"
        "gate, got = threading.Barrier(2), []\n"
        "def grab():\n"
        "    gate.wait()\n"
        "    got.append(getattr(m, name))\n"
        "threads = [threading.Thread(target=grab) for _ in range(2)]\n"
        "[t.start() for t in threads]\n"
        "[t.join() for t in threads]\n"
        "assert len(got) == 2 and got[0] is got[1] is vars(m)[name]\n"
        "print('ok')\n"
    ))
    assert out == "ok"

