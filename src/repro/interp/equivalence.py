"""Semantic-equivalence oracles between source and transformed programs.

Three increasingly strict checks:

* :func:`same_instances` — both programs execute the same multiset of
  dynamic statement instances (the transformation is a bijection on
  instances);
* :func:`dependences_preserved` — every conflicting pair of memory
  accesses (the *ground-truth* dependences, read off the source trace)
  executes in the same relative order in the transformed trace;
* :func:`outputs_close` — final array contents agree numerically
  (allclose, because reassociation of float reductions is expected
  under reordering).

Transformed programs rename and re-index loops, so instances are
compared in *source iteration space*: the transformed trace is pulled
back through an ``env_map`` (provided by
:class:`~repro.codegen.generate.GeneratedProgram.env_map`) that inverts
the per-statement transformation.

A transformation passing all three checks on representative inputs is
semantically correct on those inputs; tests use this as the executable
form of the paper's Theorem 2.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Callable, Mapping

import numpy as np

from repro.dependence.depvector import DepKind
from repro.interp.executor import ArrayStore, Trace, execute
from repro.ir.ast import Program
from repro.obs import timed

__all__ = [
    "same_instances",
    "dependences_preserved",
    "outputs_close",
    "check_equivalence",
    "ground_truth_kinded",
    "instance_keys",
]

EnvMap = Callable[[str, Mapping[str, int]], tuple[int, ...]]


def instance_keys(program: Program, trace: Trace, env_map: EnvMap | None = None) -> list[tuple]:
    """Canonical (label, source-iteration-values) keys for a trace.

    Without ``env_map``, iteration values are read from the program's
    own surrounding loops; with it, each record's environment is mapped
    back to source iteration space first.
    """
    if env_map is None:
        order = {s.label: program.loop_vars(s.label) for s in program.statements()}
        return [(r.label, tuple(r.env[v] for v in order[r.label])) for r in trace.records]
    return [(r.label, tuple(env_map(r.label, r.env))) for r in trace.records]


def same_instances(keys1: list[tuple], keys2: list[tuple]) -> bool:
    """Multisets of canonical instance keys agree."""
    return Counter(keys1) == Counter(keys2)


def ground_truth_kinded(t: Trace) -> list[tuple[int, int, str]]:
    """Value-based dependences of a trace: triples ``(i, j, kind)``,
    i<j, of trace positions with a memory conflict (same cell, at least
    one write) — the exact dependences of this run.

    flow: last write of a cell → each subsequent read (until rewritten);
    anti: each read → the next write of the cell;
    output: consecutive writes of the cell.
    """
    last_write: dict[tuple[str, tuple[int, ...]], int] = {}
    readers: dict[tuple[str, tuple[int, ...]], list[int]] = defaultdict(list)
    deps: list[tuple[int, int, str]] = []
    for pos, rec in enumerate(t.records):
        for cell in {(a, i) for a, i in rec.reads}:
            if cell in last_write:
                deps.append((last_write[cell], pos, DepKind.FLOW))
            readers[cell].append(pos)
        for cell in {(a, i) for a, i in rec.writes}:
            if cell in last_write:
                deps.append((last_write[cell], pos, DepKind.OUTPUT))
            for rd in readers[cell]:
                if rd != pos:
                    deps.append((rd, pos, DepKind.ANTI))
            readers[cell] = []
            last_write[cell] = pos
    return sorted(set(deps))


def dependences_preserved(
    src_trace: Trace, src_keys: list[tuple], dst_keys: list[tuple]
) -> list[tuple]:
    """Violated ground-truth dependences: source-ordered pairs whose
    instances run in the opposite order in the transformed trace.
    Empty list = all dependences preserved."""
    pos_in_dst: dict[tuple, int] = {}
    for i, key in enumerate(dst_keys):
        pos_in_dst.setdefault(key, i)
    violations = []
    # a pair conflicting in several kinds is one ordering constraint
    pairs = dict.fromkeys((a, b) for a, b, _ in ground_truth_kinded(src_trace))
    for a, b in pairs:
        ka, kb = src_keys[a], src_keys[b]
        if ka == kb:
            continue
        if pos_in_dst[ka] > pos_in_dst[kb]:
            violations.append((ka, kb))
    return violations


def outputs_close(
    out1: Mapping[str, np.ndarray], out2: Mapping[str, np.ndarray], rtol: float = 1e-9
) -> bool:
    if set(out1) != set(out2):
        return False
    return all(np.allclose(out1[k], out2[k], rtol=rtol, atol=1e-12) for k in out1)


@timed("interp.equivalence", attr_fn=lambda source, *a, **kw: {"program": source.name})
def check_equivalence(
    source: Program,
    transformed: Program,
    params: Mapping[str, int],
    *,
    env_map: EnvMap | None = None,
    rtol: float = 1e-9,
) -> dict:
    """Run both programs on identical inputs and apply all three oracles.

    Returns a report dict with keys ``same_instances``,
    ``dependence_violations``, ``outputs_close`` and ``ok``.
    """
    initial = ArrayStore(source, dict(params)).snapshot()
    store1, t1 = execute(source, params, arrays=initial, trace=True)
    store2, t2 = execute(transformed, params, arrays=initial, trace=True)
    k1 = instance_keys(source, t1)
    k2 = instance_keys(transformed, t2, env_map)
    si = same_instances(k1, k2)
    viol = dependences_preserved(t1, k1, k2) if si else None
    oc = outputs_close(store1.snapshot(), store2.snapshot(), rtol)
    return {
        "same_instances": si,
        "dependence_violations": viol,
        "outputs_close": oc,
        "ok": si and (viol == []) and oc,
        "instances": len(t1),
    }
