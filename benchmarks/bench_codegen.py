"""E7 — code generation for the §5.4 skewing example: legality,
augmentation, bounds, guards, simplification, and the semantic oracle.
"""


from repro.codegen import generate_code
from repro.codegen.simplify import peel_iteration, simplify_program
from repro.dependence import analyze_dependences
from repro.instance import Layout
from repro.interp import check_equivalence
from repro.ir import program_to_str
from repro.polyhedra import System, ge, var
from repro.transform import skew

ASSUME = System([ge(var("N"), 1)])


def test_e7_generate_skewed_code(benchmark, aug):
    lay = Layout(aug)
    matrix = skew(lay, "I", "J", -1).matrix
    deps = analyze_dependences(aug)

    g = benchmark(generate_code, aug, matrix, deps)
    print("\n[E7] generated code for the §5.4 skewing example:")
    print(program_to_str(g.program, header=False))
    print("[E7] paper: do I = 1-N..0 { do J = 1-I..min(N,N-I): S2 };"
          " if (I == 0) { do I2 = 1..N: S1 }")
    plan1 = g.plan("S1")
    assert plan1.extra_names  # the paper's I2 loop
    assert g.plan("S2").nonsingular.tolist() == [[1, -1], [0, 1]]


def test_e7_simplified_matches_paper(benchmark, aug):
    lay = Layout(aug)
    g = generate_code(aug, skew(lay, "I", "J", -1).matrix)

    def simplify_and_peel():
        simp = simplify_program(g.program, ASSUME)
        return simplify_program(peel_iteration(simp, (0,), "upper"), ASSUME)

    final = benchmark(simplify_and_peel)
    text = program_to_str(final, header=False)
    print("\n[E7] simplified final code (paper §5.5 form):")
    print(text)
    assert "do I = -N + 1, -1" in text
    assert "A(J, J) = f(J, J)" in text
    assert "do I2 = 1, N" in text


def test_e7_equivalence_oracle(benchmark, aug):
    lay = Layout(aug)
    g = generate_code(aug, skew(lay, "I", "J", -1).matrix)

    rep = benchmark(
        check_equivalence, aug, g.program, {"N": 16}, env_map=g.env_map()
    )
    print(f"\n[E7] oracle on N=16: {rep['instances']} instances, ok={rep['ok']}")
    assert rep["ok"]


def test_e7_codegen_scales_with_size(benchmark, chol):
    """Full-pipeline wall time on the 7-dimensional Cholesky space."""
    from repro.transform import permutation

    lay = Layout(chol)
    deps = analyze_dependences(chol)
    matrix = permutation(lay, "J", "L").matrix
    g = benchmark(generate_code, chol, matrix, deps)
    assert g.program.statements()
