"""A1 — ablation: the omega-lite feasibility stack.

Compares (a) rational Fourier–Motzkin (real shadow) alone, (b) FM with
exactness tracking + dark shadow (our default), and (c) the concrete
trace oracle, on the dependence questions the paper's examples pose.
"""


from repro.dependence import analyze_dependences
from repro.interp import execute, ground_truth_kinded
from repro.polyhedra import Feasibility, System, eq, ge, le, var


def _cholesky_question_systems():
    """The §3 affine systems: does S1-written A(I_w) reach S2's reads?"""
    Iw, Ir, Jr, N = var("Iw"), var("Ir"), var("Jr"), var("N")
    bounds = [ge(Iw, 1), le(Iw, N), ge(Ir, 1), le(Ir, N), ge(Jr, Ir + 1), le(Jr, N)]
    feasible_sys = System(bounds + [le(Iw, Ir), eq(Ir, Iw)])            # read A(I)
    infeasible_sys = System(bounds + [le(Iw, Ir), eq(Iw, Jr)])          # read A(J)
    return feasible_sys, infeasible_sys


def test_a1_real_shadow_feasibility(benchmark):
    feasible_sys, infeasible_sys = _cholesky_question_systems()

    def run():
        f1, _ = feasible_sys.project_onto(())
        f2, _ = infeasible_sys.project_onto(())
        return (not f1.is_trivially_false(), not f2.is_trivially_false())

    ok1, ok2 = benchmark(run)
    print(f"\n[A1] real shadow: feasible-case={ok1}, infeasible-case={ok2}")
    assert ok1 is True and ok2 is False


def test_a1_full_feasibility_stack(benchmark):
    feasible_sys, infeasible_sys = _cholesky_question_systems()

    def run():
        return feasible_sys.feasible(), infeasible_sys.feasible()

    v1, v2 = benchmark(run)
    print(f"\n[A1] omega-lite verdicts: {v1.value}, {v2.value}")
    assert v1 is Feasibility.FEASIBLE
    assert v2 is Feasibility.INFEASIBLE


def test_a1_trace_oracle_agreement(benchmark, simp_chol):
    """Concrete N=8 run: every symbolic dependence direction is realized
    or at least not contradicted by the ground truth."""
    m = analyze_dependences(simp_chol)

    def oracle():
        _, t = execute(simp_chol, {"N": 8}, trace=True)
        return sorted({(a, b) for a, b, _ in ground_truth_kinded(t)}), t

    gt, t = benchmark(oracle)
    # each observed conflict must be covered by some symbolic column
    from repro.instance import DynamicInstance, Layout, instance_vector

    lay = Layout(simp_chol)
    covered = 0
    for a, b in gt:
        ra, rb = t.records[a], t.records[b]
        va = instance_vector(lay, _inst(lay, ra))
        vb = instance_vector(lay, _inst(lay, rb))
        diff = tuple(y - x for x, y in zip(va, vb))
        if any(
            d.src == ra.label and d.dst == rb.label
            and all(e.contains(x) for e, x in zip(d.entries, diff))
            for d in m
        ):
            covered += 1
    print(f"\n[A1] trace dependences covered by symbolic analysis: {covered}/{len(gt)}")
    assert covered == len(gt)


def _inst(lay, rec):
    from repro.instance import DynamicInstance

    order = [c.var for c in lay.surrounding_loop_coords(rec.label)]
    return DynamicInstance(rec.label, tuple(rec.env[v] for v in order))


def test_a1_fm_elimination_throughput(benchmark):
    """Raw FM throughput on a chain of triangular systems."""
    N = var("N")
    vs = [var(f"x{i}") for i in range(8)]
    cs = [ge(vs[0], 1), le(vs[0], N)]
    for a, b in zip(vs, vs[1:]):
        cs += [ge(b, a + 1), le(b, N)]
    s = System(cs)

    def run():
        out, exact = s.project_onto(("N",))
        return exact

    exact = benchmark(run)
    assert exact


def test_a1_classic_tests_vs_exact(benchmark):
    """Precision/speed of the classical GCD+Banerjee screen against the
    omega-lite oracle on a grid of subscript pairs."""
    from repro.dependence.classic import SubscriptPair, banerjee_test, exact_test, gcd_test

    bounds = {"i": (1, 10), "j": (1, 10)}
    cases = [
        SubscriptPair({"i": ai}, a0, {"j": bj}, b0, bounds)
        for ai in (-2, 1, 2, 3)
        for bj in (1, 2)
        for a0 in (0, 1)
        for b0 in (-5, 0, 3, 40)
    ]

    def run():
        agree = fast_dep = exact_dep = 0
        for p in cases:
            fast = gcd_test(p) and banerjee_test(p)
            precise = exact_test(p)
            fast_dep += fast
            exact_dep += precise
            # conservativeness: precise => fast
            assert fast or not precise
            agree += fast == precise
        return agree, fast_dep, exact_dep

    agree, fast_dep, exact_dep = benchmark(run)
    print(f"\n[A1c] classic-vs-exact on {len(cases)} subscript pairs: "
          f"agree={agree}, classic-dependent={fast_dep}, exact-dependent={exact_dep}")
    assert agree >= exact_dep  # never misses a real dependence
