"""Per-program shards over one warm engine: locks, caches, coalescing.

The daemon's expensive state is process-global and already thread-safe —
the memoized Fourier–Motzkin engine (:mod:`repro.polyhedra.engine`) and
the persistent tune store (:mod:`repro.tune.store`) are shared by every
request for free.  What the pool adds is *per-program* structure:

* each distinct program (keyed by :func:`repro.ir.program_key`, the
  SHA-256 of its canonical parse→print text) gets a
  :class:`ProgramShard` holding the parsed program, a shard lock, and a
  bounded LRU cache of finished result payloads, so concurrent clients
  working on unrelated programs never contend;
* the shard map itself is a bounded LRU (``max_shards``, default 64,
  ``repro serve --shards``) — a daemon that has seen a million distinct
  programs holds warm state for only the most recent ones;
* in front of it, an LRU of raw request texts (at most
  :data:`MAX_ALIAS_CHARS` characters in all) maps a text already seen
  straight to its shard, so a repeated request neither parses nor
  hashes; a text's alias goes when its shard is evicted;
* identical requests that arrive while the first one is still computing
  are *coalesced*: followers block on the leader's flight and share its
  payload (or its exception) instead of recomputing.

Counters (visible on ``/metrics``): ``service.shard.hits`` / ``.misses``
/ ``.evictions``, ``service.cache.hits`` / ``.misses``,
``service.batch.coalesced``; gauge ``service.shards``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

from repro.ir import Program, canonicalize, program_key
from repro.obs import counter, gauge

__all__ = ["ProgramShard", "EnginePool", "DEFAULT_MAX_SHARDS", "MAX_ALIAS_CHARS"]

DEFAULT_MAX_SHARDS = 64
DEFAULT_MAX_RESULTS = 64
#: Most characters of raw program text the front table holds, counted
#: rather than texts because a request body may be megabytes.  A kernel
#: is a few hundred characters, so this is thousands of texts; a text
#: longer than the whole budget is parsed on every request.
MAX_ALIAS_CHARS = 1 << 20


class ProgramShard:
    """Warm state for one canonical program."""

    def __init__(self, key: str, program: Program, max_results: int):
        self.key = key
        self.program = program
        #: raw texts that alias this shard in the pool's front table
        #: (guarded by the pool's map lock)
        self.texts: set[str] = set()
        #: serializes *computation* on this shard; held for the whole fn()
        self.lock = threading.RLock()
        #: guards only the result map — never held while computing, so a
        #: follower can miss the cache and coalesce while the leader runs
        self._cache_lock = threading.Lock()
        self._max_results = max(1, max_results)
        self._results: OrderedDict[tuple, dict] = OrderedDict()

    def cached(self, sig: tuple) -> dict | None:
        with self._cache_lock:
            payload = self._results.get(sig)
            if payload is not None:
                self._results.move_to_end(sig)
            return payload

    def store(self, sig: tuple, payload: dict) -> None:
        with self._cache_lock:
            self._results[sig] = payload
            self._results.move_to_end(sig)
            while len(self._results) > self._max_results:
                self._results.popitem(last=False)

    def cache_len(self) -> int:
        with self._cache_lock:
            return len(self._results)


class _Flight:
    """One in-progress computation followers can wait on."""

    __slots__ = ("done", "payload", "error")

    def __init__(self):
        self.done = threading.Event()
        self.payload: dict | None = None
        self.error: BaseException | None = None


class EnginePool:
    """The shard map plus the in-flight coalescing table."""

    def __init__(
        self,
        max_shards: int | None = None,
        max_results_per_shard: int = DEFAULT_MAX_RESULTS,
    ):
        if max_shards is None:
            max_shards = DEFAULT_MAX_SHARDS
        self.max_shards = max(1, max_shards)
        self.max_results_per_shard = max_results_per_shard
        self._lock = threading.Lock()
        self._shards: OrderedDict[str, ProgramShard] = OrderedDict()
        self._aliases: OrderedDict[str, ProgramShard] = OrderedDict()
        self._alias_chars = 0
        self._inflight_lock = threading.Lock()
        self._inflight: dict[tuple, _Flight] = {}
        self.stats_lock = threading.Lock()
        self.stats: dict[str, int] = {
            "shard_hits": 0, "shard_misses": 0, "shard_evictions": 0,
            "cache_hits": 0, "cache_misses": 0, "coalesced": 0,
        }

    def _bump(self, name: str, obs_name: str) -> None:
        with self.stats_lock:
            self.stats[name] += 1
        counter(obs_name)

    def shard_for(self, program_text: str) -> ProgramShard:
        """The (possibly new) shard for a program's canonical text.

        A text seen before is looked up raw and parses nothing.  Any
        other text is parsed once: that one parse yields the canonical
        text the key hashes and, on a miss, the shard's program.
        Eviction drops the least-recently-used shard and its aliases but
        never disturbs a request that already holds a reference to it.
        """
        with self._lock:
            shard = self._aliases.get(program_text)
            if shard is not None:
                self._aliases.move_to_end(program_text)
                self._shards.move_to_end(shard.key)
        if shard is not None:
            self._bump("shard_hits", "service.shard.hits")
            return shard
        # outside the map lock: parsing is pure, so requests never queue
        # behind one another's parse
        program, text = canonicalize(program_text, "service")
        key = program_key(text)
        evicted = 0
        with self._lock:
            shard = self._shards.get(key)
            hit = shard is not None
            if hit:
                self._shards.move_to_end(key)
            else:
                shard = ProgramShard(key, program, self.max_results_per_shard)
                self._shards[key] = shard
                while len(self._shards) > self.max_shards:
                    _, old = self._shards.popitem(last=False)
                    for alias in old.texts:
                        del self._aliases[alias]
                        self._alias_chars -= len(alias)
                    evicted += 1
            self._alias(program_text, shard)
            n = len(self._shards)
        if hit:
            self._bump("shard_hits", "service.shard.hits")
            return shard
        self._bump("shard_misses", "service.shard.misses")
        for _ in range(evicted):
            self._bump("shard_evictions", "service.shard.evictions")
        gauge("service.shards", n)
        return shard

    def _alias(self, text: str, shard: ProgramShard) -> None:
        """Map ``text`` to ``shard`` in the front table (map lock held)."""
        if text in self._aliases or len(text) > MAX_ALIAS_CHARS:
            return  # a racing request aliased it first, or it never fits
        self._aliases[text] = shard
        shard.texts.add(text)
        self._alias_chars += len(text)
        while self._alias_chars > MAX_ALIAS_CHARS:
            stale, owner = self._aliases.popitem(last=False)
            owner.texts.discard(stale)
            self._alias_chars -= len(stale)

    def shard_count(self) -> int:
        with self._lock:
            return len(self._shards)

    def compute(
        self, shard: ProgramShard, sig: tuple, fn: Callable[[], dict]
    ) -> tuple[dict, bool, bool]:
        """Serve ``sig`` from the shard cache, a shared in-flight
        computation, or a fresh ``fn()`` under the shard lock.

        Returns ``(payload, cached, coalesced)``.
        """
        payload = shard.cached(sig)
        if payload is not None:
            self._bump("cache_hits", "service.cache.hits")
            return payload, True, False
        key = (shard.key, sig)
        with self._inflight_lock:
            flight = self._inflight.get(key)
            leader = flight is None
            if leader:
                flight = _Flight()
                self._inflight[key] = flight
        if not leader:
            self._bump("coalesced", "service.batch.coalesced")
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            return flight.payload or {}, False, True
        try:
            self._bump("cache_misses", "service.cache.misses")
            with shard.lock:
                payload = fn()
            shard.store(sig, payload)
            flight.payload = payload
            return payload, False, False
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._inflight_lock:
                self._inflight.pop(key, None)
            flight.done.set()

    def snapshot(self) -> dict:
        """Pool statistics for the ``/metrics`` endpoint."""
        with self._lock:
            shards = [
                {"key": s.key[:12], "program": s.program.name,
                 "results": s.cache_len()}
                for s in self._shards.values()
            ]
        with self.stats_lock:
            stats = dict(self.stats)
        return {
            "max_shards": self.max_shards,
            "shard_count": len(shards),
            "shards": shards,
            **stats,
        }
