"""``kernel_run`` — generated code at realistic sizes.

Why: this is the user-visible payoff of a transformation.  Only
``backend/`` (and NumPy under it) works here; the compile layers are
idle once set-up has lowered the rows, so executor-collapse or
native-emitter work shows here and compile work must not.

Eleven rows, each one ``run_lowered`` call on a program lowered in
set-up.  Every row is checked twice in set-up — against the independent
reference interpreter running the *source* program at a reduced size,
and at full size against the scalar ``source`` emission — and every
timed run is compared with that full-size result again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ledger import layers, zoo
from ledger.bench import layer_ms, timed
from ledger.metrics import median
from ledger.trace import setup_ms

#: seconds of work one row gets per round (fast rows repeat to fill it)
ROW_SLICE_S = 0.25
MAX_REPS = 20


@dataclass(frozen=True)
class Row:
    kernel: str
    spec: str | None
    params: tuple[tuple[str, int], ...]
    modes: tuple[str, ...]
    small: tuple[tuple[str, int], ...]


_STENCIL = ((("N", 100000), ("T", 50)), (("N", 48), ("T", 5)))

ROWS = (
    Row("cholesky", None, (("N", 256),), ("source", "source-vec", "source-par"), (("N", 32),)),
    Row("lu", None, (("N", 256),), ("source-vec",), (("N", 32),)),
    Row("seidel_2d", "skew(I,J,1)", (("N", 512),), ("source", "source-par"), (("N", 48),)),
    Row("trmm", "tile(I,32); permute(J,K)", (("N", 256),), ("source-vec",), (("N", 24),)),
    Row("jacobi_1d", None, _STENCIL[0], ("source-vec",), _STENCIL[1]),
    Row("fdtd_1d", None, _STENCIL[0], ("source-vec", "source-par"), _STENCIL[1]),
    Row("matmul", None, (("N", 96),), ("source",), (("N", 24),)),
)


class Workload:
    rss_of_children = False

    def __init__(self, ctx):
        self.ctx = ctx
        #: item -> (lowered, mode, params, arrays, full-size expected arrays, reps per round)
        self.rows: dict[str, tuple] = {}
        self.source_lines = 0

    def setup(self) -> None:
        tr, rec, seed = self.ctx.tracer, self.ctx.rec, self.ctx.seed
        for row in ROWS:
            name = row.kernel
            source = layers.parse(tr, name, zoo.kernel_text(name), name)
            program = source
            if row.spec:
                program = layers.transformed(tr, name, source, row.spec)
                self.source_lines += layers.lines(program)
            params, small = dict(row.params), dict(row.small)
            small_arrays = zoo.seeded_arrays(source, small, seed)
            small_want = layers.reference(tr, name, source, small, small_arrays)
            arrays = zoo.seeded_arrays(program, params, seed)
            scalar = layers.lower(tr, name, program, "source")
            want, scalar_ms = timed(layers.run, tr, name, scalar, params, arrays, "source")
            for mode in row.modes:
                item = f"{name}:{mode}"
                low = scalar if mode == "source" else layers.lower(tr, item, program, mode)
                self.source_lines += layers.lines(low.source)
                got = layers.run(tr, item, low, small, small_arrays, mode)
                rec.check(f"small:{item}", layers.arrays_match(small_want, got),
                          "differs from the reference interpreter at reduced size")
                ms = scalar_ms
                if mode != "source":  # the scalar emission is the full-size reference itself
                    got, ms = timed(layers.run, tr, item, low, params, arrays, mode)
                    rec.check(f"full:{item}", self.same(want, got),
                              "differs from the scalar source emission at full size")
                reps = max(1, min(MAX_REPS, round(ROW_SLICE_S * 1e3 / ms)))
                self.rows[item] = (low, mode, params, arrays, want, reps)
        self.order = zoo.shuffled(seed, self.rows)

    @staticmethod
    def same(want: dict, got: dict) -> bool:
        return all(np.array_equal(want[k], got[k]) for k in want)

    def round(self, tr) -> None:
        for item in self.order:
            low, mode, params, arrays, want, reps = self.rows[item]
            for _ in range(reps):
                got, ms = timed(layers.run, tr, item, low, params, arrays, mode)
                self.ctx.rec.op(item, ms, self.same(want, got),
                                "differs from the scalar source emission")

    def finish(self) -> dict:
        samples = self.ctx.rec.samples[True]
        execute = {f"{span}_ms": 0.0 for span in layers.EXECUTE_SPAN.values()}
        for item, values in samples.items():
            execute[f"{layers.EXECUTE_SPAN[self.rows[item][1]]}_ms"] += median(values)
        return {"generated_source_lines": self.source_lines,
                "layers": {**layer_ms(self.ctx, setup_ms), **execute,
                           "backend.lowered_lines": self.source_lines}}
