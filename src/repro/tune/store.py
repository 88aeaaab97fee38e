"""Persistent, content-addressed tuning cache (``.repro_tune/``).

Every finished :func:`repro.tune.driver.tune` search is serialized as
one JSON file whose name is the SHA-256 of the *cache key*: the
program's canonical text (:func:`repro.ir.canonical_text`, the same
identity the service shards by), the sorted parameter binding, and the
repro version.  Anything that could change the search outcome changes
the key, so staleness is handled by construction — editing the program,
re-running with other sizes, or upgrading repro all land on fresh keys,
and entries written by older versions are simply never looked up again.

Robustness guarantees (exercised by ``tests/tune/test_store.py``):

* **atomic writes** — entries are written to a temp file in the cache
  directory and ``os.replace``d into place, so a crashed or concurrent
  writer can never leave a half-written entry under a live key;
* **corruption tolerance** — unreadable or schema-mismatched entries
  are treated as misses (and unlinked, best-effort) instead of raising;
* **bounded size** — the directory is pruned to ``max_entries`` files,
  oldest-modified first, on every write.

The cache directory resolves, in priority order: explicit constructor
argument (the CLI's ``--cache-dir``), the ``REPRO_TUNE_DIR`` environment
variable, then ``./.repro_tune``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Mapping

from repro.ir.ast import Program
from repro.ir.parser import canonical_text
from repro.obs import counter

__all__ = ["TuneStore", "DEFAULT_DIR", "ENV_DIR", "STORE_SCHEMA"]

DEFAULT_DIR = ".repro_tune"
ENV_DIR = "REPRO_TUNE_DIR"

#: Bump when the entry layout changes incompatibly; mismatched entries
#: read as misses.
STORE_SCHEMA = 1

#: Default directory bound: one entry per (program, params) pair, so a
#: few hundred covers any realistic workload mix.
MAX_ENTRIES = 256


def _repro_version() -> str:
    from repro import __version__

    return __version__


class TuneStore:
    """Directory of tuning results, addressed by content hash."""

    def __init__(self, root: str | Path | None = None, *, max_entries: int = MAX_ENTRIES):
        if root is None:
            root = os.environ.get(ENV_DIR) or DEFAULT_DIR
        self.root = Path(root)
        self.max_entries = max_entries

    # -- keys -----------------------------------------------------------------

    @staticmethod
    def key_for(
        program: Program | str,
        params: Mapping[str, int],
        *,
        version: str | None = None,
    ) -> str:
        """SHA-256 cache key over (canonical program text, sorted param
        binding, repro version)."""
        text = canonical_text(program)
        payload = json.dumps(
            {
                "schema": STORE_SCHEMA,
                "program": text,
                "params": sorted((k, int(v)) for k, v in params.items()),
                "version": version or _repro_version(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    # -- read -----------------------------------------------------------------

    def get(self, key: str) -> dict | None:
        """Load the entry for ``key``; corrupt or foreign files read as
        a miss (and are unlinked, best-effort) rather than raising."""
        path = self.path_for(key)
        try:
            raw = path.read_text()
        except OSError:
            return None
        try:
            entry = json.loads(raw)
            if not isinstance(entry, dict) or entry.get("schema") != STORE_SCHEMA:
                raise ValueError("schema mismatch")
        except (ValueError, TypeError):
            counter("tune.cache.corrupt")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        return entry

    # -- write ----------------------------------------------------------------

    def put(self, key: str, entry: dict) -> Path:
        """Atomically persist ``entry`` under ``key`` and prune the
        directory back under ``max_entries`` (oldest-modified first)."""
        entry = dict(entry)
        entry["schema"] = STORE_SCHEMA
        entry["key"] = key
        path = self.path_for(key)
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(entry, f, indent=2, sort_keys=True)
                f.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        counter("tune.cache.writes")
        self._prune(keep=path)
        return path

    def _prune(self, keep: Path) -> None:
        try:
            entries = sorted(
                (p for p in self.root.glob("*.json")),
                key=lambda p: p.stat().st_mtime,
            )
        except OSError:
            return
        excess = len(entries) - self.max_entries
        for p in entries:
            if excess <= 0:
                break
            if p == keep:
                continue
            try:
                p.unlink()
                counter("tune.cache.evictions")
                excess -= 1
            except OSError:
                pass

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        n = 0
        for p in self.root.glob("*.json"):
            try:
                p.unlink()
                n += 1
            except OSError:
                pass
        return n

    def __len__(self) -> int:
        try:
            return sum(1 for _ in self.root.glob("*.json"))
        except OSError:
            return 0

    def __repr__(self) -> str:
        return f"TuneStore({str(self.root)!r}, entries={len(self)})"
