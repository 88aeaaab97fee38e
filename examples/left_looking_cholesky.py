"""The paper's §6 headline: derive left-looking Cholesky from
right-looking Cholesky with the completion procedure.

We give the completion a single row — "the new outermost loop scans the
old L coordinate" — and it finds the child reordering and remaining
rows automatically; code generation then emits left-looking Cholesky,
already simplified (no guards, no constant ``min``/``max``: the paper's
§6 listing), which we validate against numpy.

Run:  python examples/left_looking_cholesky.py
"""

import numpy as np

from repro import (
    Layout, analyze_dependences, complete_transformation, generate_code,
    program_to_str,
)
from repro.interp import ArrayStore, execute
from repro.kernels import cholesky


def main() -> None:
    program = cholesky()
    print("right-looking Cholesky (the paper's §6 source):")
    print(program_to_str(program))

    layout = Layout(program)
    print("\ninstance-vector layout (7 coordinates):")
    print(layout.describe())

    deps = analyze_dependences(program)
    print(f"\n{len(deps)} dependences:")
    print(deps.summary())

    # partial transformation: lead with the old L coordinate (index 5)
    partial = [[0, 0, 0, 0, 0, 1, 0]]
    result = complete_transformation(program, partial, deps, layout=layout)
    print("\ncompleted transformation matrix:")
    print(result.matrix)
    print(f"child order at the K loop: {result.child_order[(0,)]}")

    generated = generate_code(program, result.matrix, deps)
    print("\ngenerated left-looking Cholesky:")
    print(program_to_str(generated.program, header=False))

    base = ArrayStore(program, {"N": 10}).snapshot()
    store, _ = execute(generated.program, {"N": 10}, arrays=base)
    ref = np.linalg.cholesky(base["A"])
    err = np.abs(np.tril(store.arrays["A"]) - ref).max()
    print(f"\nmax |L - numpy.cholesky| on N=10: {err:.3e}")


if __name__ == "__main__":
    main()
