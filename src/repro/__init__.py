"""repro — a reproduction of Kodukula & Pingali, *Transformations for
Imperfectly Nested Loops* (SC 1996).

The package implements the paper's full pipeline — instance vectors,
dependence analysis, matrix-modelled transformations, legality, code
generation with augmentation, and the completion procedure — plus the
substrates it needs (exact integer linear algebra, a Fourier–Motzkin
"omega-lite", a loop-nest IR with parser and interpreter, and a cache
model for the performance claims).

Quickstart::

    from repro import parse_program, Layout, analyze_dependences
    from repro import permutation, check_legality, generate_code

    p = parse_program(SRC)
    lay = Layout(p)
    deps = analyze_dependences(p)
    t = permutation(lay, "I", "J")
    report = check_legality(lay, t.matrix, deps)
    if report.legal:
        print(generate_code(p, t.matrix, deps).program)
"""

from typing import TYPE_CHECKING

from repro.util.lazy import lazy_exports

__version__ = "1.0.0"

if TYPE_CHECKING:
    from repro.codegen import GeneratedProgram, generate_code, per_statement_transformation
    from repro.codegen.simplify import fold_expr, peel_iteration, simplify_program
    from repro.completion import CompletionResult, complete_transformation
    from repro.dependence import (
        DepEntry, DependenceMatrix, DepKind, DepVector, analyze_dependences,
    )
    from repro.instance import (
        DynamicInstance, Layout, from_vector, instance_vector, symbolic_vector,
    )
    from repro.interp import (
        CacheConfig, CacheStats, check_equivalence, execute, simulate_cache,
        trace_addresses,
    )
    from repro.ir import Program, parse_program, program_to_str
    from repro.legality import LegalityReport, assert_legal, check_legality, recover_structure
    from repro.linalg import IntMatrix
    from repro.transform import (
        Transformation, alignment, compose, distribute, distribution_legal, identity,
        permutation, reversal, scaling, skew, statement_reorder,
    )
    from repro.util.errors import ReproError

# Nothing of the pipeline is imported until one of these names is first
# used: `import repro.cli` must not pay for layers a command never runs.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.codegen": ("GeneratedProgram", "generate_code", "per_statement_transformation"),
    "repro.codegen.simplify": ("fold_expr", "peel_iteration", "simplify_program"),
    "repro.completion": ("CompletionResult", "complete_transformation"),
    "repro.dependence": (
        "DepEntry", "DependenceMatrix", "DepKind", "DepVector", "analyze_dependences",
    ),
    "repro.instance": (
        "DynamicInstance", "Layout", "from_vector", "instance_vector", "symbolic_vector",
    ),
    "repro.interp": (
        "CacheConfig", "CacheStats", "check_equivalence", "execute", "simulate_cache",
        "trace_addresses",
    ),
    "repro.ir": ("Program", "parse_program", "program_to_str"),
    "repro.legality": (
        "LegalityReport", "assert_legal", "check_legality", "recover_structure",
    ),
    "repro.linalg": ("IntMatrix",),
    "repro.transform": (
        "Transformation", "alignment", "compose", "distribute", "distribution_legal",
        "identity", "permutation", "reversal", "scaling", "skew", "statement_reorder",
    ),
    "repro.util.errors": ("ReproError",),
})
__all__ += ["__version__"]
