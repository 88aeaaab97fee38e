"""Definition-6 legality tests."""

import itertools

import pytest

from repro.dependence import DepEntry, analyze_dependences
from repro.dependence.entry import POS_INF
from repro.legality import (
    DepStatus, assert_legal, check_legality, lex_scan, surely_carried,
)
from repro.linalg import IntMatrix
from repro.transform import (
    alignment, compose, permutation, reversal, skew, statement_reorder,
)
from repro.util.errors import LegalityError


def sign(entries):
    return lex_scan(entries)[0]


class TestLexStatus:
    """The sign half of :func:`lex_scan`."""

    def test_positive(self):
        assert sign((DepEntry.const(0), DepEntry.plus())) == "positive"
        assert sign((DepEntry.const(2),)) == "positive"

    def test_zero(self):
        assert sign((DepEntry.const(0), DepEntry.const(0))) == "zero-or-positive"
        assert sign(()) == "zero-or-positive"

    def test_zero_or_positive_falls_through(self):
        assert sign((DepEntry(0, 10), DepEntry.const(0))) == "zero-or-positive"

    def test_may_be_negative(self):
        assert sign((DepEntry.minus(),)) == "may-be-negative"
        assert sign((DepEntry.star(), DepEntry.plus())) == "may-be-negative"

    def test_definite_positive_after_fallthrough(self):
        assert sign((DepEntry(0, 5), DepEntry.plus())) == "positive"


class TestLexScanCarriers:
    """The carrier half: the levels that may carry the dependence."""

    def test_carriers_skip_zero_levels_and_stop_at_nonzero(self):
        assert lex_scan((DepEntry.const(0), DepEntry.plus(), DepEntry.star()))[1] == (1,)
        assert lex_scan((DepEntry.const(0), DepEntry.const(0)))[1] == ()

    def test_a_level_that_may_be_zero_passes_the_dependence_on(self):
        """``(0+, 0, +)``: the first level carries some instances, the
        rest fall through the zero level to the third."""
        entries = (DepEntry(0, POS_INF), DepEntry.const(0), DepEntry.plus())
        assert lex_scan(entries) == ("positive", (0, 2))

    def test_scan_stops_at_an_entry_that_cannot_be_zero(self):
        assert lex_scan((DepEntry.minus(), DepEntry.plus())) == ("may-be-negative", (0,))
        assert lex_scan((DepEntry.star(), DepEntry.plus())) == ("may-be-negative", (0, 1))


E = DepEntry.parse


class TestSurelyCarried:
    """The distribution test: the first level that may carry ``d``
    carries every instance of it."""

    @pytest.mark.parametrize("entries, expected", [
        ((), False),
        ((E(0), E(0)), False),
        ((E(1),), True),
        ((E(0), E("+")), True),
        ((E(0), E(2), E("*")), True),
        ((E("+"), E("-")), True),
        ((E(-1), E("+")), False),
        ((E("*"), E("+")), False),
        ((E("0+"), E(0)), False),
        # [0..1] may be zero: lex_scan falls through to the +1 and calls
        # the vector positive, but the first level does not carry it all
        ((DepEntry(0, 1), E(1)), False),
        ((E("0+"), E("+")), False),
    ])
    def test_table(self, entries, expected):
        assert surely_carried(entries) is expected

    def test_stricter_than_lex_scan_positive(self):
        entries = (DepEntry(0, 1), E(1))
        assert lex_scan(entries) == ("positive", (0, 1))
        assert not surely_carried(entries)

    def test_equals_the_first_possibly_nonzero_entry_being_positive(self):
        pool = [E(0), E(1), E(-1), E("+"), E("-"), E("*"), E("0+"), E("-0"),
                DepEntry(0, 1), DepEntry(-1, 1), DepEntry(2, 5)]
        for n in range(4):
            for entries in itertools.product(pool, repeat=n):
                first = next((e for e in entries if not e.is_zero()), None)
                assert surely_carried(entries) == (
                    first is not None and first.definitely_positive()
                ), entries


class TestSimplifiedCholesky:
    def test_identity_is_legal(self, simp_chol, simp_chol_layout):
        deps = analyze_dependences(simp_chol)
        r = check_legality(simp_chol_layout, IntMatrix.identity(4), deps)
        assert r.legal
        assert not r.unsatisfied()

    def test_plain_interchange_illegal(self, simp_chol, simp_chol_layout):
        deps = analyze_dependences(simp_chol)
        t = permutation(simp_chol_layout, "I", "J")
        r = check_legality(simp_chol_layout, t.matrix, deps)
        assert not r.legal
        # the violated dependence is the back edge S2 -> S1
        assert any(d.src == "S2" and d.dst == "S1" for d in r.violations)

    def test_statement_reorder_illegal(self, simp_chol, simp_chol_layout):
        deps = analyze_dependences(simp_chol)
        t, _ = statement_reorder(simp_chol_layout, (0,), [1, 0])
        r = check_legality(simp_chol_layout, t.matrix, deps)
        assert not r.legal

    def test_inner_reversal_legal(self, simp_chol, simp_chol_layout):
        """Reversing J only flips the order of independent updates."""
        deps = analyze_dependences(simp_chol)
        t = reversal(simp_chol_layout, "J")
        r = check_legality(simp_chol_layout, t.matrix, deps)
        assert r.legal

    def test_outer_reversal_illegal(self, simp_chol, simp_chol_layout):
        deps = analyze_dependences(simp_chol)
        t = reversal(simp_chol_layout, "I")
        r = check_legality(simp_chol_layout, t.matrix, deps)
        assert not r.legal

    def test_assert_legal_raises(self, simp_chol, simp_chol_layout):
        deps = analyze_dependences(simp_chol)
        t = permutation(simp_chol_layout, "I", "J")
        with pytest.raises(LegalityError):
            assert_legal(simp_chol_layout, t.matrix, deps)

    def test_bad_block_structure_is_illegal(self, simp_chol, simp_chol_layout):
        deps = analyze_dependences(simp_chol)
        m = IntMatrix.identity(4).tolist()
        m[1][1] = 2
        r = check_legality(simp_chol_layout, IntMatrix(m), deps)
        assert not r.legal and r.structure is None


class TestAugmentationExample:
    """§5.4: skewing is legal; the S1 self-dependence goes unsatisfied."""

    def test_skew_legal_with_unsatisfied(self, aug, aug_layout):
        deps = analyze_dependences(aug)
        t = skew(aug_layout, "I", "J", -1)
        r = check_legality(aug_layout, t.matrix, deps)
        assert r.legal
        unsat = r.unsatisfied("S1")
        assert len(unsat) == 1
        assert unsat[0].src == unsat[0].dst == "S1"

    def test_cross_statement_dep_satisfied_by_loops(self, aug, aug_layout):
        deps = analyze_dependences(aug)
        t = skew(aug_layout, "I", "J", -1)
        r = check_legality(aug_layout, t.matrix, deps)
        statuses = {
            (d.src, d.dst): s for d, s in r.statuses if d.src != d.dst
        }
        assert statuses[("S2", "S1")] == DepStatus.SATISFIED_BY_LOOPS


class TestCholesky:
    def test_identity_legal(self, chol, chol_layout):
        deps = analyze_dependences(chol)
        assert check_legality(chol_layout, IntMatrix.identity(7), deps).legal

    def test_inner_jl_interchange(self, chol, chol_layout):
        """Interchanging the J and L loops of the update is legal: the
        update instances within one K are independent."""
        deps = analyze_dependences(chol)
        t = permutation(chol_layout, "J", "L")
        r = check_legality(chol_layout, t.matrix, deps)
        assert r.legal

    def test_alignment_preserving_legality(self):
        from repro.instance import Layout
        from repro.ir import parse_program

        # S2 consumes A(I-1): shifting S1 one iteration later still puts
        # the producer in the same outer iteration, before the consumer
        p = parse_program(
            "param N\nreal A(0:N+1), B(N)\n"
            "do I = 1..N\n"
            "  S1: A(I) = f(I)\n"
            "  do J = 1..N\n"
            "    S2: B(J) = B(J) + A(I-1)\n"
            "  enddo\n"
            "enddo"
        )
        lay = Layout(p)
        deps = analyze_dependences(p)
        t = alignment(lay, "S1", "I", 1)
        r = check_legality(lay, t.matrix, deps)
        assert r.legal

    def test_alignment_both_directions_illegal_on_cholesky(self, simp_chol, simp_chol_layout):
        # simplified Cholesky tolerates no shift of S1 in either direction
        deps = analyze_dependences(simp_chol)
        for off in (-1, 1):
            t = alignment(simp_chol_layout, "S1", "I", off)
            assert not check_legality(simp_chol_layout, t.matrix, deps).legal

    def test_alignment_breaking_legality(self, simp_chol, simp_chol_layout):
        deps = analyze_dependences(simp_chol)
        # shifting S1 one iteration later puts sqrt after its first use
        t = alignment(simp_chol_layout, "S1", "I", 1)
        r = check_legality(simp_chol_layout, t.matrix, deps)
        assert not r.legal

    def test_composed_transforms_checked_as_one(self, simp_chol, simp_chol_layout):
        deps = analyze_dependences(simp_chol)
        t = compose(
            reversal(simp_chol_layout, "J"),
            reversal(simp_chol_layout, "J"),
        )
        assert check_legality(simp_chol_layout, t.matrix, deps).legal

    def test_report_str(self, simp_chol, simp_chol_layout):
        deps = analyze_dependences(simp_chol)
        r = check_legality(simp_chol_layout, IntMatrix.identity(4), deps)
        text = str(r)
        assert "LEGAL" in text and "S1->S2" in text
