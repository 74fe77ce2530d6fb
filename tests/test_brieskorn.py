"""Two-variable Brieskorn classification."""

import itertools

import pytest

from arczeta import (
    ClassStatus,
    DiagonalGerm,
    InvariantTriple,
    SignValue,
    classify,
    germ_invariants,
    parse_germ,
    recover_p,
    recover_q,
    recover_signs,
    zeta_direct,
)
from arczeta import zeta
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
        # direct sweeps: germ_invariants reads both germs from one triple
        for p, q, e2 in [(3, 4, 1), (3, 5, -1), (5, 6, 1)]:
            a = _direct_triple(1, p, e2, q, 2 * q + 2)
            b = _direct_triple(-1, p, e2, q, 2 * q + 2)
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


def _census_germs():
    """The 144 germs e1*x^p + e2*y^q with 2 <= p <= q <= 9."""
    return [
        (e1, p, e2, q)
        for p in range(2, 10)
        for q in range(p, 10)
        for e1, e2 in itertools.product((1, -1), repeat=2)
    ]


def _direct_triple(e1, p, e2, q, order):
    germ = DiagonalGerm(terms=((e1, p), (e2, q)))
    variants = ("naive", "plus", "minus")
    return InvariantTriple(*(zeta_direct(germ, order, v) for v in variants))


def _orbit(e1, p, e2, q):
    """The germs the evident coordinate changes reach: x -> -x for odd p,
    y -> -y for odd q, and x <-> y for p = q."""
    orbit, todo = set(), [(e1, p, e2, q)]
    while todo:
        g = todo.pop()
        if g in orbit:
            continue
        orbit.add(g)
        a, p_, b, q_ = g
        todo += [(-a, p_, b, q_)] if p_ % 2 else []
        todo += [(a, p_, -b, q_)] if q_ % 2 else []
        todo += [(b, p_, a, q_)] if p_ == q_ else []
    return frozenset(orbit)


class TestCensus:
    def test_classes_are_the_symmetry_orbits(self):
        # grouped by (Z, Z+, Z-) at order 300, the census splits into 77
        # classes; the coordinate changes give 78 orbits, and the only two
        # orbits that share a class are those of x^3 + y^6 and x^3 - y^6,
        # classify's open case (p odd, q an even multiple of p); the triples
        # are direct sweeps, as germ_invariants reads an orbit from one
        classes = {}
        for g in _census_germs():
            classes.setdefault(_direct_triple(*g, 300), set()).add(g)
        orbits = {_orbit(*g) for g in _census_germs()}
        assert (len(classes), len(orbits)) == (77, 78)
        merged = _orbit(1, 3, 1, 6) | _orbit(1, 3, -1, 6)
        expected = orbits - {_orbit(1, 3, 1, 6), _orbit(1, 3, -1, 6)} | {merged}
        assert {frozenset(c) for c in classes.values()} == expected

    def test_reports_do_not_depend_on_what_ran_before(self):
        order = 20
        triples = [_direct_triple(*g, order) for g in _census_germs()]
        zeta._kept_invariants.cache_clear()
        def report(t):
            return classify(t.naive, t.plus, t.minus)

        forward = [report(t) for t in triples]
        backward = [report(t) for t in reversed(triples)]
        assert forward == backward[::-1]
        fresh = []
        for t in triples:
            zeta._kept_invariants.cache_clear()
            fresh.append(report(t))
        assert fresh == forward
        # each germ, read after any other, gives the triple zeta_direct sums
        for g in _census_germs()[::-1] + _census_germs():
            e1, p, e2, q = g
            inv = germ_invariants(DiagonalGerm(terms=((e1, p), (e2, q))), order)
            assert inv == _direct_triple(*g, order), g

    def test_no_germ_argument(self):
        # the report is read from the three series alone
        inv = _series("x^4-y^6")
        with pytest.raises(TypeError):
            classify(inv.naive, inv.plus, inv.minus, DiagonalGerm(((1, 4), (1, 6))))
        report = classify(inv.naive, inv.plus, inv.minus)
        assert (report.eps_p, report.eps_q) == (SignValue.PLUS, SignValue.MINUS)
