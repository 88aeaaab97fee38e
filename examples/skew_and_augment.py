"""The paper's §5.4 worked example, end to end.

Skewing the outer loop of an imperfect nest collapses statement S1's
iteration space to a single outer iteration; code generation must add
an extra loop (augmentation) and a guard, and the §5.5 "standard
optimizations" then peel the boundary iteration into clean code.

Run:  python examples/skew_and_augment.py
"""

from repro import (
    Layout, analyze_dependences, check_legality, generate_code, parse_program,
    peel_iteration, program_to_str, simplify_program, skew,
)
from repro.interp import ArrayStore, execute, outputs_close
from repro.legality import recover_structure
from repro.codegen import per_statement_transformation
from repro.polyhedra import System, ge, var

SRC = """
param N
real A(0:N+1,0:N+1), B(0:N)
do I = 1..N
  S1: B(I) = B(I-1) + A(I-1,I+1)
  do J = I..N
    S2: A(I,J) = f(I,J)
  enddo
enddo
"""


def main() -> None:
    program = parse_program(SRC, "aug_example")
    layout = Layout(program)
    deps = analyze_dependences(program)
    print("dependence matrix (paper: [[1,1],[0,-1],[0,1],[1,-1]]):")
    print(deps.to_str())

    t = skew(layout, "I", "J", -1)
    print("\ntransformation matrix (skew outer by -inner):")
    print(t.matrix)

    report = check_legality(layout, t.matrix, deps)
    print(f"\nlegal: {report.legal}")
    for d in report.unsatisfied():
        print(f"unsatisfied self-dependence (needs augmentation): {d}")

    structure = recover_structure(layout, t.matrix)
    for label in ("S1", "S2"):
        ps = per_statement_transformation(layout, t.matrix, structure, label)
        print(f"per-statement transformation M_{label}: {ps.linear.tolist()}")

    generated = generate_code(program, t.matrix, deps)
    print("\ngenerated code (paper's §5.4 form; simplified, valid for every N):")
    print(program_to_str(generated.program, header=False))

    assume = System([ge(var("N"), 1)])
    simplified = simplify_program(generated.program, assume)
    final = simplify_program(peel_iteration(simplified, (0,), "upper"), assume)
    print("\nunder N >= 1, after peeling (paper's final §5.5 code):")
    print(program_to_str(final, header=False))

    # prove both forms compute the same values
    init = ArrayStore(program, {"N": 12}).snapshot()
    s0, _ = execute(program, {"N": 12}, arrays=init)
    s1, _ = execute(final, {"N": 12}, arrays=init)
    print(f"\noutputs identical on N=12: {outputs_close(s0.snapshot(), s1.snapshot())}")


if __name__ == "__main__":
    main()
