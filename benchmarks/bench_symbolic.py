"""E21 — the fractal symbolic oracle (docs/SYMBOLIC.md): consultation
latency on the rescue zoo, and the cost split between the three
verdicts.  Each test pins its verdict (three certified rescues whose
certificates re-verify, one honest mismatch): a normalizer that starts
certifying everything fails here before it fails in the fuzzer.  The
oracle only ever runs after a Theorem-2 rejection, so
its per-consultation wall clock is the price of every appeal — the
``symbolic.check_ns`` histogram in production, timed directly here.
"""

from repro.kernels import cholesky, syrk, trsv
from repro.legality import check
from repro.symbolic import prove_schedule, verify_certificate


def test_e21_syrk_reverse_certified(benchmark):
    """The flagship rescue: reversing syrk's accumulation loop."""
    program = syrk()
    out = benchmark(prove_schedule, program, "reverse(K)")
    assert out.verdict == "symbolic-legal"
    cert = out.certificate
    print(f"\n[E21] syrk reverse(K): {cert.summary()}")
    assert verify_certificate(program, cert)


def test_e21_syrk_blocked_reverse_certified(benchmark):
    """Blocking then reversing the reduction — two rejections deep."""
    program = syrk()
    out = benchmark(prove_schedule, program, "tile(K,2); reverse(KT)")
    assert out.verdict == "symbolic-legal"
    assert verify_certificate(program, out.certificate)


def test_e21_trsv_reverse_certified(benchmark):
    program = trsv()
    out = benchmark(prove_schedule, program, "reverse(J)")
    assert out.verdict == "symbolic-legal"
    assert verify_certificate(program, out.certificate)


def test_e21_cholesky_reverse_mismatch(benchmark):
    """The honest rejection: a recurrence reversal has a concrete
    diverging cell, found without ever sampling data."""
    out = benchmark(prove_schedule, cholesky(), "reverse(K)")
    assert out.verdict == "mismatch"
    assert out.diff


def test_e21_full_appeal_path(benchmark):
    """Theorem-2 rejection + symbolic appeal, as `check --symbolic`
    runs it — the end-to-end latency a rescued `repro check` pays."""
    program = syrk()

    def appeal():
        return check(program, "reverse(K)", oracle="symbolic")

    report = benchmark(appeal)
    assert not report.legal and report.accepted
