"""``compile_cold`` — the whole zoo through the whole compile pipeline,
in process, from a cold Fourier–Motzkin engine.

Why: compile time is a few hundred FM queries per program and nothing
else — import is paid before the first timed op and nothing executes —
so the dependence / legality / completion / codegen / lowering layers
show here and the import and execution layers must not.

One item per kernel; one op is the kernel's whole chain: parse →
dependences (cold, then repeated) → one legal and one Theorem-2-illegal
spec checked (three of the illegal ones appealed to the symbolic
oracle) → completion → code generation and simplification → lowering in
the three emitter modes.  ``engine.cache_clear()`` precedes every op.
"""

from __future__ import annotations

from ledger import layers, zoo
from ledger.bench import layer_ms, timed


class Workload:
    rss_of_children = False

    def __init__(self, ctx):
        self.ctx = ctx
        self.expected = zoo.pinned_verdicts()
        self.specs = zoo.draw_specs(ctx.seed)
        self.order = zoo.shuffled(ctx.seed, zoo.KERNELS)
        self.texts = {name: zoo.kernel_text(name) for name in self.order}
        self.source_lines = 0
        self.counts = {}

    def chain(self, tr, name: str) -> dict:
        """One kernel through every compile layer."""
        kernel = zoo.KERNELS[name]
        program = layers.parse(tr, name, self.texts[name], name)
        deps = layers.analyze(tr, name, program)
        layers.analyze(tr, name, program, warm=True)
        out = {"program": program, "vectors": len(list(deps)), "verdicts": {},
               "program_lines": 0, "lowered": {}}
        target = program
        legal = self.specs.get(name)
        for spec in filter(None, (legal, kernel.illegal)):
            sched = layers.schedule(tr, name, program, spec)
            out["verdicts"][spec] = layers.verdict(
                tr, name, program, spec, sched,
                symbolic=kernel.symbolic and spec == kernel.illegal)
            if spec == legal:
                target = layers.simplify(tr, name, layers.generate(
                    tr, name, sched.program, sched.matrix, sched.deps))
                out["program_lines"] += layers.lines(target)
        if kernel.lead:
            done = layers.complete(tr, name, program, kernel.lead, deps)
            out["program_lines"] += layers.lines(
                layers.generate(tr, name, program, done.matrix, deps))
        for mode in layers.MODES:
            out["lowered"][mode] = layers.lower(tr, name, target, mode)
        return out

    def verdicts_ok(self, name: str, out: dict) -> tuple[bool, str]:
        want = {spec: self.expected[name][spec] for spec in out["verdicts"]}
        return out["verdicts"] == want, f"verdicts {out['verdicts']} != pinned {want}"

    def setup(self) -> None:
        """One untimed pass: pays one-time imports, counts the generated
        lines, and runs every lowering of every transformed kernel
        against the reference interpreter on the *source* program
        (Theorem 2: a legal transformation computes the same result)."""
        from repro.polyhedra import engine

        tr, rec = self.ctx.tracer, self.ctx.rec
        accepts = rejects = certified = vectors = lowered_lines = program_lines = 0
        for name in self.order:
            engine.cache_clear()
            out = self.chain(tr, name)
            rec.check(f"verdicts:{name}", *self.verdicts_ok(name, out))
            params = dict(zoo.KERNELS[name].small)
            arrays = zoo.seeded_arrays(out["program"], params, self.ctx.seed)
            want = layers.reference(tr, name, out["program"], params, arrays)
            for mode, low in out["lowered"].items():
                got = layers.run(tr, name, low, params, arrays, mode)
                rec.check(f"output:{name}:{mode}", layers.arrays_match(want, got),
                          "lowered output differs from the reference interpreter")
                lowered_lines += layers.lines(low.source)
            verdicts = list(out["verdicts"].values())
            accepts += sum(v in ("legal", "symbolic-legal") for v in verdicts)
            rejects += sum(v in ("illegal", "mismatch", "unknown") for v in verdicts)
            certified += verdicts.count("symbolic-legal")
            vectors += out["vectors"]
            program_lines += out["program_lines"]
        self.source_lines = program_lines + lowered_lines
        self.counts = {
            "dependence.vectors": vectors, "legality.accepts": accepts,
            "legality.rejects": rejects, "symbolic.certified": certified,
            "codegen.output_lines": program_lines, "backend.lowered_lines": lowered_lines,
        }

    def round(self, tr) -> None:
        from repro.polyhedra import engine

        for name in self.order:
            engine.cache_clear()
            with tr.span("item", name):
                out, ms = timed(self.chain, tr, name)
            self.ctx.rec.op(name, ms, *self.verdicts_ok(name, out))

    def finish(self) -> dict:
        return {"generated_source_lines": self.source_lines,
                "layers": {**layer_ms(self.ctx), **self.counts}}
