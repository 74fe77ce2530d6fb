"""Two-variable Brieskorn classification."""

import itertools

import pytest

from arczeta import (
    ClassStatus,
    DiagonalGerm,
    SignValue,
    classify,
    germ_invariants,
    parse_germ,
    recover_p,
    recover_q,
    recover_signs,
)
from arczeta.brieskorn import NO_MATCHING_SIGN_NOTE
from arczeta.errors import ClassifyError
from arczeta.ring import ZetaSeries


def _series(text, order=24):
    return germ_invariants(parse_germ(text), order)


class TestRecoverP:
    @pytest.mark.parametrize(
        "germ,p", [("x^2+y^2", 2), ("x^3+y^4", 3), ("x^5+y^7", 5)]
    )
    def test_examples(self, germ, p):
        assert recover_p(_series(germ).naive) == p

    def test_zero_series_cannot_classify(self):
        with pytest.raises(ClassifyError):
            recover_p(ZetaSeries(10))


class TestRecoverQ:
    @pytest.mark.parametrize(
        "germ,p,q",
        [
            ("x^3+y^4", 3, 4),
            ("x^3+y^6", 3, 6),
            ("x^2+y^2", 2, 2),
            ("x^3+y^9", 3, 9),
            ("x^3+y^7", 3, 7),
            ("x^3+y^10", 3, 10),
            ("x^2+y^8", 2, 8),
            ("x^5+y^5", 5, 5),
        ],
    )
    def test_examples(self, germ, p, q):
        assert recover_q(_series(germ).naive, p) == q

    def test_truncation_too_small(self):
        with pytest.raises(ClassifyError):
            recover_q(_series("x^3", order=10).naive, 3)


class TestRecoverSigns:
    def test_positive_quadric(self):
        inv = _series("x^2+y^2")
        eps_p, eps_q, _ = recover_signs(inv.naive, inv.plus, inv.minus, 2, 2)
        assert (eps_p, eps_q) == (SignValue.PLUS, SignValue.PLUS)

    def test_negative_germ(self):
        inv = _series("-x^2-y^4")
        eps_p, eps_q, _ = recover_signs(inv.naive, inv.plus, inv.minus, 2, 4)
        assert (eps_p, eps_q) == (SignValue.MINUS, SignValue.MINUS)

    def test_odd_exponents_undetermined(self):
        for text in ("x^3+y^3", "x^3-y^3"):
            inv = _series(text)
            eps_p, eps_q, _ = recover_signs(inv.naive, inv.plus, inv.minus, 3, 3)
            assert eps_p is SignValue.UNDETERMINED
            assert eps_q is SignValue.UNDETERMINED

    def test_no_sign_pair_rebuilds_a_monomial(self):
        inv = _series("x^2*y^3", order=40)
        assert recover_signs(inv.naive, inv.plus, inv.minus, 5, 5) is None


class TestClassify:
    def test_sign_twins_with_equal_naive_series(self):
        plus = _series("x^3+y^4")
        minus = _series("x^3-y^4")
        assert plus.naive == minus.naive
        cp = classify(plus.naive, plus.plus, plus.minus)
        cm = classify(minus.naive, minus.plus, minus.minus)
        assert (cp.p, cp.q) == (cm.p, cm.q) == (3, 4)
        assert cp.eps_q is SignValue.PLUS
        assert cm.eps_q is SignValue.MINUS

    def test_open_case(self):
        inv = _series("x^3+y^6")
        report = classify(inv.naive, inv.plus, inv.minus)
        assert report.status is ClassStatus.OPEN_CASE
        assert (report.p, report.q) == (3, 6)
        assert report.eps_q is SignValue.UNDETERMINED

    def test_fully_determined_even_pair(self):
        inv = _series("x^4-y^6")
        report = classify(inv.naive, inv.plus, inv.minus)
        assert (report.p, report.q) == (4, 6)
        assert report.eps_p is SignValue.PLUS
        assert report.eps_q is SignValue.MINUS
        assert report.status is ClassStatus.DETERMINED

    def test_p_equal_q_opposite_signs_normalized(self):
        # both orderings classify as x^p - y^p
        for text in ("x^4-y^4", "-x^4+y^4"):
            inv = _series(text)
            report = classify(inv.naive, inv.plus, inv.minus)
            assert (report.eps_p, report.eps_q) == (SignValue.PLUS, SignValue.MINUS)

    def test_flip_of_odd_variable_is_invisible(self):
        for p, q, e2 in [(3, 4, 1), (3, 5, -1), (5, 6, 1)]:
            a = germ_invariants(DiagonalGerm(terms=((1, p), (e2, q))), 2 * q + 2)
            b = germ_invariants(DiagonalGerm(terms=((-1, p), (e2, q))), 2 * q + 2)
            ca = classify(a.naive, a.plus, a.minus)
            cb = classify(b.naive, b.plus, b.minus)
            assert (ca.p, ca.q, ca.eps_p, ca.eps_q, ca.status) == (
                cb.p,
                cb.q,
                cb.eps_p,
                cb.eps_q,
                cb.status,
            )

    def test_truncation_guard(self):
        inv = _series("x^3+y^6", order=10)  # needs 2q + 2 = 14
        report = classify(inv.naive, inv.plus, inv.minus)
        assert report.status is ClassStatus.INCONSISTENT
        assert any("truncation" in n for n in report.notes)

    def test_p_equal_one_rejected(self):
        inv = _series("x^1+y^2", order=12)
        report = classify(inv.naive, inv.plus, inv.minus)
        assert report.status is ClassStatus.INCONSISTENT

    def test_monomial_series_inconsistent(self):
        # p = q = 5 is read off the naive series of x^2*y^3, but none of the
        # four germs +-x^5 +- y^5 reproduces it
        inv = _series("x^2*y^3", order=40)
        report = classify(inv.naive, inv.plus, inv.minus)
        assert report.status is ClassStatus.INCONSISTENT
        assert (report.p, report.q) == (5, 5)
        assert report.notes == (NO_MATCHING_SIGN_NOTE,)

    def test_mismatched_orders_inconsistent(self):
        inv = _series("x^2+y^4", order=24)
        report = classify(inv.naive, inv.plus.truncate(20), inv.minus)
        assert report.status is ClassStatus.INCONSISTENT
        assert report.p is None
        assert report.notes == ("the three series must share a truncation order",)

    def test_pure_power_inconsistent(self):
        # recover_q fails: the series agrees with x^3 up to the order
        inv = _series("x^3", order=20)
        report = classify(inv.naive, inv.plus, inv.minus)
        assert report.status is ClassStatus.INCONSISTENT
        assert (report.p, report.q) == (3, None)
        assert "truncation too small to recover q" in report.notes[0]

    def test_garbage_series_inconsistent(self):
        report = classify(ZetaSeries(20), ZetaSeries(20), ZetaSeries(20))
        assert report.status is ClassStatus.INCONSISTENT

    def test_report_json_schema(self):
        inv = _series("x^2+y^4")
        data = classify(inv.naive, inv.plus, inv.minus).to_json_dict()
        assert set(data) == {"p", "q", "eps_p", "eps_q", "status", "notes"}
        assert data["eps_p"] in ("plus", "minus", "undetermined")
        assert data["status"] in ("determined", "open_case", "inconsistent")


def expected_class(p, q, e1, e2):
    """The classification the parity rules prescribe for e1 x^p + e2 y^q."""
    open_case = p % 2 == 1 and q % p == 0 and (q // p) % 2 == 0
    und = SignValue.UNDETERMINED
    if p == q and e1 != e2:
        eps_p = SignValue.PLUS if p % 2 == 0 else und
        eps_q = SignValue.MINUS if q % 2 == 0 else und
    else:
        eps_p = (SignValue.PLUS if e1 == 1 else SignValue.MINUS) if p % 2 == 0 else und
        if q % 2 == 1 or open_case:
            eps_q = und
        else:
            eps_q = SignValue.PLUS if e2 == 1 else SignValue.MINUS
    status = ClassStatus.OPEN_CASE if open_case else ClassStatus.DETERMINED
    return p, q, eps_p, eps_q, status


class TestRoundTripSample:
    # the full census is the acceptance suite; spot-check a slice here
    @pytest.mark.parametrize("p,q", [(2, 2), (2, 4), (3, 4), (3, 6), (4, 5), (5, 7)])
    def test_round_trip(self, p, q):
        for e1, e2 in itertools.product((1, -1), repeat=2):
            germ = DiagonalGerm(terms=((e1, p), (e2, q)))
            inv = germ_invariants(germ, 2 * q + 2)
            got = classify(inv.naive, inv.plus, inv.minus)
            assert (got.p, got.q, got.eps_p, got.eps_q, got.status) == expected_class(
                p, q, e1, e2
            )
