"""``cli_cold`` — twelve fresh ``python -m repro …`` invocations.

Why: this is what a user at a terminal pays.  About 90% of it is the
import layer (interpreter start-up, ``import repro.cli``, numpy and
networkx under it); the analysis layers do almost nothing at these
sizes.  The roadmap's cold-start target shows here and nowhere else.

Items are {deps, check, transform, complete} × {cholesky, trmm,
seidel_2d}, run one after another, each in a new process.  Standard
output and exit code must equal what the in-process ``api.*_op`` call
renders.
"""

from __future__ import annotations

import subprocess
import sys
import time

from ledger import layers, zoo
from ledger.bench import polyhedra_metrics

TIMEOUT_S = 60


class Workload:
    rss_of_children = True

    def __init__(self, ctx):
        self.ctx = ctx
        self.items: dict[str, list[str]] = {}
        self.want: dict[str, tuple[int, str]] = {}
        self.source_lines = 0
        self.oracle_fm: dict[str, float] = {}

    def invoke(self, argv: list[str]) -> tuple[int, str, float]:
        """One cold CLI process: exit code, stdout, wall milliseconds.
        The child is always reaped, killed first if it hangs."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv], cwd=self.ctx.tmp,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        return proc.returncode, out, (time.perf_counter() - t0) * 1e3

    def setup(self) -> None:
        """Write the ``.loop`` files, compute every expected output in
        process (cold engine per item, as in a fresh process), and start
        each subcommand once so the private bytecode cache also holds
        what the children import from outside ``src/``."""
        from repro import api, obs
        from repro.ir import parse_program
        from repro.polyhedra import engine

        obs.install()  # for fm.eliminations; the children's own counters are out of reach
        before = engine.cache_stats()
        verdicts = zoo.pinned_verdicts()
        specs = zoo.draw_specs(self.ctx.seed)
        for name in zoo.CLI_PROGRAMS:
            text = zoo.kernel_text(name)
            (self.ctx.tmp / f"{name}.loop").write_text(text + "\n")
            program = parse_program(text, name)
            spec, lead = specs[name], zoo.KERNELS[name].lead
            calls = {
                "deps": (["deps", f"{name}.loop"], lambda: api.analyze_op(program)),
                "check": (["check", f"{name}.loop", spec],
                          lambda: api.check_op(program, spec)),
                "transform": (["transform", f"{name}.loop", spec],
                              lambda: api.transform_op(program, spec)),
                "complete": (["complete", f"{name}.loop", "--lead", lead],
                             lambda: api.complete_op(program, lead)),
            }
            for op, (argv, call) in calls.items():
                engine.cache_clear()
                result = call()
                item = f"{op}:{name}"
                self.items[item] = argv
                self.want[item] = (getattr(result, "exit_code", 0), result.render() + "\n")
                if op in ("transform", "complete"):
                    self.source_lines += layers.lines(result.render())
            self.ctx.rec.check(f"verdict:{name}", verdicts[name][spec] == "legal"
                               and self.want[f"check:{name}"][0] == 0,
                               f"{spec} must be legal")
        after, counters = engine.cache_stats(), obs.snapshot()[0]
        obs.uninstall()
        self.oracle_fm = polyhedra_metrics(
            after.hits - before.hits, after.misses - before.misses,
            counters.get("fm.eliminations", 0))
        self.order = zoo.shuffled(self.ctx.seed, self.items)
        for op in ("deps", "check", "transform", "complete"):
            self.invoke(self.items[f"{op}:trmm"])

    def round(self, tr) -> None:
        for item in self.order:
            with tr.span("cli.invoke", item):
                code, out, ms = self.invoke(self.items[item])
            self.ctx.rec.op(item, ms, (code, out) == self.want[item],
                            f"exit {code}, stdout differs from the in-process render"
                            if code == self.want[item][0] else f"exit {code}")

    def finish(self) -> dict:
        # FM traffic of the twelve ops, counted on the in-process oracle pass
        return {"generated_source_lines": self.source_lines, "layers": self.oracle_fm}
