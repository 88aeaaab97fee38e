"""A2 — ablation: the imperfect-nest framework degenerates to the
classical unimodular framework on perfectly nested loops.
"""


from repro.dependence import analyze_dependences
from repro.instance import DynamicInstance, Layout, instance_vector
from repro.ir import parse_program
from repro.legality import check_legality
from repro.linalg import IntMatrix, random_unimodular
from repro.perfect import PerfectDeps, is_legal_perfect

PERFECT_SRC = (
    "param N\nreal A(-99:N+99,-99:N+99)\n"
    "do I = 1..N\n do J = 1..N\n  S1: A(I,J) = A(I-1,J) + A(I,J-1)\n enddo\nenddo"
)


def test_a2_vectors_degenerate(benchmark):
    p = parse_program(PERFECT_SRC)
    lay = Layout(p)

    def run():
        return instance_vector(lay, DynamicInstance("S1", (3, 4)))

    v = benchmark(run)
    print(f"\n[A2] instance vector of perfect nest: {v} (= iteration vector)")
    assert v == (3, 4)


def test_a2_dependences_degenerate(benchmark_cold):
    p = parse_program(PERFECT_SRC)
    m = benchmark_cold(analyze_dependences, p)
    cols = sorted(tuple(d.entry_strs()) for d in m)
    print(f"\n[A2] dependence columns: {cols} (classical distances (1,0),(0,1))")
    assert ("1", "0") in cols and ("0", "1") in cols


def test_a2_legality_agreement_random_matrices(benchmark):
    """Both frameworks give identical verdicts on 40 random unimodular
    candidates for the stencil nest."""
    p = parse_program(PERFECT_SRC)
    lay = Layout(p)
    deps = analyze_dependences(p)
    classical = PerfectDeps.parse(2, [list(d.entry_strs()) for d in deps])
    candidates = [random_unimodular(2, seed=s) for s in range(40)]

    def run():
        agree = 0
        verdicts = []
        for m in candidates:
            ours = check_legality(lay, m, deps).legal
            theirs = is_legal_perfect(m, classical)
            verdicts.append((ours, theirs))
            agree += ours == theirs
        return agree, verdicts

    agree, verdicts = benchmark(run)
    print(f"\n[A2] verdict agreement: {agree}/{len(candidates)}")
    legal_count = sum(1 for o, _ in verdicts if o)
    print(f"[A2] legal candidates found: {legal_count}")
    assert agree == len(candidates)


def test_a2_overhead_of_generality(benchmark):
    """Cost of the instance-vector machinery relative to a plain 2x2
    matrix-vector check: time our Definition-6 test on the perfect nest
    (the classical test is a handful of integer ops)."""
    p = parse_program(PERFECT_SRC)
    lay = Layout(p)
    deps = analyze_dependences(p)
    skew_swap = IntMatrix([[0, 1], [1, 0]]) @ IntMatrix([[1, 0], [1, 1]])

    r = benchmark(check_legality, lay, skew_swap, deps)
    assert r.legal
