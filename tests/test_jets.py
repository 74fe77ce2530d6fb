"""Jet-space decompositions, tie curves, and the direct zeta route."""

import itertools
from fractions import Fraction

import pytest

from arczeta import (
    JET_SPACE_CAP,
    DiagonalGerm,
    MonomialGerm,
    UnsupportedGermError,
    count_jets_with_order,
    germ_to_str,
    jet_beta,
    jet_beta_sign,
    jet_strata,
    parse_germ,
    tie_curve_rule,
    zeta_direct,
    zeta_expr,
    zeta_term,
)
from arczeta.errors import InputError, UnsupportedComputationError
from arczeta.jets import _level_set_beta
from arczeta.ring import ONE, U, ZERO

from conftest import brute_force_diagonal_jets, poly


class TestGermGrammar:
    @pytest.mark.parametrize(
        "text,kind,d",
        [
            ("x^3+y^4", DiagonalGerm, 2),
            ("-x^2-y^2", DiagonalGerm, 2),
            ("x^2*y^3", MonomialGerm, 2),
            ("x^2*y^5*z^0", MonomialGerm, 3),
            ("-x^2*z^3", MonomialGerm, 3),
            ("x^3", DiagonalGerm, 1),
            ("x^2+y^4+z^6", DiagonalGerm, 3),
        ],
    )
    def test_parse(self, text, kind, d):
        g = parse_germ(text)
        assert isinstance(g, kind)
        assert g.dim == d

    def test_round_trip(self):
        for text in ["x^3+y^4", "-x^2-y^2", "x^2*y^3", "x^2*y^0", "x^2*y^5*z^0"]:
            g = parse_germ(text)
            assert parse_germ(germ_to_str(g)) == g

    def test_diagonal_terms_sorted(self):
        g = DiagonalGerm(terms=((1, 4), (-1, 2)))
        assert g.exponents == (2, 4)
        assert g.signs == (-1, 1)

    @pytest.mark.parametrize(
        "bad",
        ["", "x^3+x^2", "y^2+z^3", "x^0", "w^2", "x^3+", "x^2*y^-1", "x^2+y^0"],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(InputError):
            parse_germ(bad)


class TestTieCurves:
    @pytest.mark.parametrize(
        "p,q,e1,e2,level,expected",
        [
            (2, 2, 1, 1, 0, "1"),
            (2, 2, 1, -1, 0, "2*u-1"),
            (2, 3, 1, -1, 0, "u"),
            (3, 3, 1, -1, 0, "u"),
            (2, 4, 1, -1, 0, "2*u-1"),
            (2, 2, 1, 1, 1, "u+1"),
            (2, 4, 1, 1, 1, "u+1"),
            (2, 2, 1, 1, -1, "0"),
            (2, 2, -1, -1, 1, "0"),
            (2, 2, -1, -1, -1, "u+1"),
            (2, 3, 1, 1, 1, "u"),
            (3, 4, 1, -1, -1, "u"),
            # indefinite even pairs: branch closure parity decides
            (2, 2, 1, -1, 1, "u-1"),
            (2, 2, 1, -1, -1, "u-1"),
            (4, 4, 1, -1, 1, "u-1"),
            (2, 4, 1, -1, 1, "2*u"),
            (2, 4, 1, -1, -1, "u-1"),
            (4, 8, 1, -1, 1, "2*u"),
            (4, 6, 1, -1, 1, "u-1"),
        ],
    )
    def test_rule_table(self, p, q, e1, e2, level, expected):
        assert tie_curve_rule(p, q, e1, e2, level).beta == poly(expected)

    def test_rule_degree_bound(self):
        for p in range(1, 6):
            for q in range(p, 7):
                for e1 in (1, -1):
                    for e2 in (1, -1):
                        for level in (0, 1, -1):
                            rule = tie_curve_rule(p, q, e1, e2, level)
                            if rule.beta:
                                assert rule.beta.degree <= 1
                            assert rule.mechanism

    @pytest.mark.parametrize("args", [(2, 2, 0, 1, 0), (2, 2, 1, 1, 2)])
    def test_rule_rejects_bad_signs_and_levels(self, args):
        match = r"signs must be \+1 or -1, and the level 0, \+1 or -1"
        with pytest.raises(ValueError, match=match):
            tie_curve_rule(*args)

    def test_level_zero_counts_over_small_fields(self):
        # {a^2 = b^2}: two lines, 2q - 1 points for every odd q
        for q in (3, 5, 7, 11):
            pts = sum(
                1
                for a in range(q)
                for b in range(q)
                if (a * a - b * b) % q == 0
            )
            assert pts == tie_curve_rule(2, 2, 1, -1, 0).beta.evaluate(q)
        # {a^2 = b^3}: cuspidal, q points whenever cubing is bijective
        for q in (5, 11):
            pts = sum(
                1
                for a in range(q)
                for b in range(q)
                if (a * a - b * b * b) % q == 0
            )
            assert pts == tie_curve_rule(2, 3, 1, -1, 0).beta.evaluate(q)

    def test_unit_circle_count(self):
        # {a^2 + b^2 = 1} at q = 3 mod 4
        for q in (3, 7, 11):
            pts = sum(
                1
                for a in range(q)
                for b in range(q)
                if (a * a + b * b) % q == 1
            )
            assert pts == tie_curve_rule(2, 2, 1, 1, 1).beta.evaluate(q)

    def test_hyperbola_count(self):
        # {a^2 - b^2 = 1} is the rational curve {st = 1}: q - 1 points
        for q in (3, 5, 7, 11):
            pts = sum(
                1
                for a in range(q)
                for b in range(q)
                if (a * a - b * b) % q == 1
            )
            assert pts == q - 1 == tie_curve_rule(2, 2, 1, -1, 1).beta.evaluate(q)


def _fibre_count(q, e, t):
    """Number of real b with e*b^q = t."""
    if t == 0 or q % 2:
        return 1
    return 2 if e * t > 0 else 0


def _cell_count_chi(p, q, e1, e2, c):
    """chi_c of {e1*a^p + e2*b^q = c} by sweeping a.

    The real roots of e1*a^p = c cut the a-line into open intervals.  Over
    each interval the fibre is k points moving continuously (k is fixed by
    the sign of c - e1*a^p), a union of k open arcs with chi_c = -k; over
    each root the fibre is the single point b = 0.
    """
    if c == 0:
        roots = [0]
    elif p % 2:
        roots = [e1 * c]
    else:
        roots = [-1, 1] if e1 * c > 0 else []
    cuts = [Fraction(r) for r in roots]
    samples = [cuts[0] - 1, *((a + b) / 2 for a, b in zip(cuts, cuts[1:])),
               cuts[-1] + 1] if cuts else [Fraction(0)]
    return len(cuts) - sum(_fibre_count(q, e2, c - e1 * a**p) for a in samples)


class TestEulerShadow:
    # beta at u = -1 is the Euler characteristic with compact supports, which
    # the elementary cell count gives without the rule table
    def test_tie_curve_rules_at_minus_one(self):
        cases = list(itertools.product(
            range(1, 13), range(1, 13), (1, -1), (1, -1), (0, 1, -1)))
        assert len(cases) == 1728
        for p, q, e1, e2, c in cases:
            rule = tie_curve_rule(p, q, e1, e2, c)
            assert rule.beta.evaluate(-1) == _cell_count_chi(p, q, e1, e2, c), (
                p, q, e1, e2, c)

    @pytest.mark.parametrize("exps", [(2, 2, 2), (2, 4, 6), (4, 4, 8)])
    def test_definite_three_term_sets(self, exps):
        # a sphere (chi_c 2), the origin (1), or empty (0)
        for sign, level in itertools.product((1, -1), (0, 1, -1)):
            terms = [(sign, e) for e in exps]
            expected = 1 if level == 0 else 2 if level == sign else 0
            assert _level_set_beta(terms, level, 1).evaluate(-1) == expected


class TestStrata:
    def test_single_power(self):
        strata = jet_strata(parse_germ("x^3"), 6)
        assert len(strata) == 1
        st = strata[0]
        assert st.orders == (2,)
        assert st.free_dims == 4
        assert st.condition_beta == poly("u-1")
        assert st.contribution == poly("u-1").shift(4)

    def test_empty_when_order_unreachable(self):
        assert jet_strata(parse_germ("x^2"), 3) == []

    def test_three_way_definite_tie_is_one_stratum(self):
        strata = jet_strata(parse_germ("x^2+y^2+z^2"), 2)
        assert len(strata) == 1
        st = strata[0]
        assert st.condition_beta == poly("u^3-1")
        assert st.free_dims == 3
        assert st.orders == (1, 1, 1)

    def test_strata_contributions_sum_to_beta(self):
        g = parse_germ("x^2-y^4")
        for n in range(1, 10):
            total = ZERO
            for st in jet_strata(g, n):
                total = total + st.contribution
            assert total == jet_beta(g, n)

    def test_degree_matches_stratum_dimension(self):
        for text in ["x^2+y^4", "x^3-y^3", "x^2-y^4", "x^2+y^2+z^2", "x^2*y^3"]:
            g = parse_germ(text)
            for n in range(1, 11):
                strata = jet_strata(g, n)
                if strata:
                    dim = max(
                        s.condition_beta.degree + s.free_dims for s in strata
                    )
                    assert jet_beta(g, n).degree == dim
                else:
                    assert jet_beta(g, n).is_zero()


class TestJetBeta:
    def test_pure_power(self):
        # order mk reached with m-fold vanishing: (u-1) u^(n-m)
        for k in (1, 2, 3, 5):
            for m in (1, 2, 3):
                n = m * k
                assert jet_beta(parse_germ(f"x^{k}"), n) == poly("u-1").shift(n - m)

    def test_f_pk_coefficients(self):
        # x^p + y^(kp) + z^(kp): beta u^(-3n) = (u^3-1) u^(-mk-2m) at n = pmk
        for p, k, m in [(2, 1, 1), (2, 2, 1), (4, 3, 2)]:
            n = p * m * k
            got = jet_beta(parse_germ(f"x^{p}+y^{k*p}+z^{k*p}"), n).shift(-3 * n)
            assert got == poly("u^3-1").shift(-m * k - 2 * m)

    def test_split_cubic_tie(self):
        assert jet_beta(parse_germ("x^3-y^3"), 3) == poly("u^2-u").shift(4)

    def test_tie_counts_over_good_fields(self):
        # {a^3 != b^3} has q^2 - q points when cubing is a bijection
        for q in (5, 11):
            pts = sum(
                1
                for a in range(q)
                for b in range(q)
                if (a**3 - b**3) % q
            )
            assert pts == poly("u^2-u").evaluate(q)

    def test_sign_examples(self):
        assert jet_beta_sign(parse_germ("x^4"), 8, -1).is_zero()
        assert jet_beta_sign(parse_germ("x^4"), 8, 1) == poly("2").shift(6)
        # x^2 + y^2 at n = 2m: beta u^(-2n) = (u+1) u^(-2m)
        g = parse_germ("x^2+y^2")
        for m in (1, 2, 3):
            n = 2 * m
            got = jet_beta_sign(g, n, 1).shift(-4 * m)
            assert got == poly("u+1").shift(-2 * m)
            assert jet_beta_sign(g, n, -1).is_zero()

    def test_monomial_sign_rule(self):
        # gcd parity decides the number of sign-normalized sheets
        g = parse_germ("x^2*y^2")
        assert jet_beta_sign(g, 4, 1) == (2 * (U - ONE)).shift(6)
        assert jet_beta_sign(g, 4, -1).is_zero()
        g = parse_germ("-x^2*y^2")
        assert jet_beta_sign(g, 4, 1).is_zero()
        g = parse_germ("x^1*y^2")
        assert jet_beta_sign(g, 3, 1) == (U - ONE).shift(4)
        assert jet_beta_sign(g, 3, -1) == (U - ONE).shift(4)

    def test_brute_force_cross_checks(self):
        # small jet spaces, on fields where the condition sets have
        # polynomial counts matching the real structure
        cases = [
            ("x^2-y^2", 2, 5, None),
            ("x^2-y^2", 3, 3, None),
            ("x^2-y^2", 4, 3, None),
            ("x^2+y^2", 2, 3, None),
            ("x^3-y^3", 3, 5, None),
            ("x^2-y^2", 2, 3, 1),
            ("x^2-y^2", 3, 3, 1),
            ("x^3+y^3", 3, 5, -1),
            # signed cases where the counts model the real level sets; a
            # definite pair at the opposite sign is left out, since every
            # element of F_q is a sum of two squares (x^2+y^2 = -1 has 36
            # jets at q = 3 against a real beta of 0)
            ("x^2", 2, 3, 1),
            ("x^2", 2, 3, -1),
            ("-x^2", 2, 3, 1),
            ("-x^2", 2, 3, -1),
            ("x^2", 4, 3, 1),
            ("x^2", 4, 3, -1),
            ("x^3", 3, 5, 1),
            ("x^3", 3, 5, -1),
            ("-x^3", 6, 5, 1),
            ("-x^3", 6, 5, -1),
            ("x^4", 4, 3, 1),
            ("x^4", 4, 3, -1),
            ("-x^4", 4, 7, 1),
            ("-x^4", 4, 7, -1),
            ("x^2+y^2", 2, 3, 1),
            ("-x^2-y^2", 2, 3, -1),
            ("x^2+y^4", 4, 3, 1),
            ("x^2+y^4", 2, 7, 1),
            ("x^2+y^4", 2, 7, -1),
            ("x^2-y^4", 4, 3, -1),
            ("x^4-y^4", 4, 3, 1),
            ("x^4-y^4", 4, 3, -1),
            ("x^2+y^3", 3, 5, 1),
            ("x^2+y^3", 3, 5, -1),
            ("x^3-y^3", 3, 5, 1),
            ("x^3-y^3", 3, 5, -1),
        ]
        for text, n, q, target in cases:
            g = parse_germ(text)
            brute = brute_force_diagonal_jets(g.terms, n, q, target)
            symbolic = (
                jet_beta(g, n) if target is None else jet_beta_sign(g, n, target)
            )
            assert symbolic.evaluate(q) == brute, (text, n, q, target)

    def test_enumerator_battery(self):
        # wider cross-check through the F_q jet counter, again only on
        # fields where every condition set involved counts polynomially:
        # split and definite pairs at any suitable q, odd ties where the
        # relevant power map is a bijection (q = 2 mod 3 for cubes), circles
        # and fourth-power root counts at q = 3 mod 4
        naive_cases = [
            ("x^2-y^2", 5, (3,)),       # cancellation depth 3
            ("x^2-y^2", 6, (3,)),       # cancellation depth 4
            ("x^2-y^4", 6, (3, 7)),     # indefinite pair, depth 2
            ("x^2+y^4", 6, (3, 7)),     # definite pair, empty deep strata
            ("x^3-y^3", 5, (5,)),       # odd tie, depth 2
            ("x^2+y^3", 6, (3,)),       # mixed parity tie at T^6
            ("x^2+y^3", 7, (3,)),       # mixed parity, deep over T^6
            ("x^1+y^2", 4, (3, 5)),     # exponent one
        ]
        for text, n, qs, in naive_cases:
            g = parse_germ(text)
            beta = jet_beta(g, n)
            for q in qs:
                if q ** (g.dim * n) > JET_SPACE_CAP:
                    continue
                assert count_jets_with_order(g, n, q) == beta.evaluate(q), (
                    text,
                    n,
                    q,
                )


class TestUnsupported:
    def test_indefinite_three_way_tie(self):
        with pytest.raises(UnsupportedGermError) as exc:
            jet_beta(parse_germ("x^3-y^3+z^3"), 3)
        assert exc.value.n == 3
        with pytest.raises(UnsupportedGermError):
            zeta_direct(parse_germ("x^3-y^3+z^3"), 9)

    def test_mixed_sign_even_three_way(self):
        with pytest.raises(UnsupportedGermError):
            jet_beta(parse_germ("x^2+y^2-z^2"), 2)

    def test_two_way_ties_in_three_variables_are_fine(self):
        # the third coordinate is forced to higher order
        g = parse_germ("x^2+y^4+z^6")
        assert not jet_beta(g, 2).is_zero()
        assert not jet_beta(g, 4).is_zero()

    def test_supported_below_the_offending_order(self):
        g = parse_germ("x^2+y^2-z^4")
        assert not jet_beta(g, 2).is_zero()  # pair tie only
        with pytest.raises(UnsupportedGermError):
            jet_beta(g, 4)
        # the message names the first order that meets the tie
        with pytest.raises(UnsupportedGermError, match=r"T\^4$") as exc:
            jet_beta(g, 8)
        assert exc.value.n == 4


class TestZetaDirect:
    def test_pure_power_series(self):
        z = zeta_direct(parse_germ("x^3"), 12)
        e = zeta_expr([zeta_term(U - ONE, [(1, 3)])])
        assert z == e.expand(12)

    def test_support_at_multiples_only(self):
        for k in (2, 3, 4, 5):
            z = zeta_direct(parse_germ(f"x^{k}"), 30)
            assert z.support() == tuple(range(k, 31, k))

    def test_inert_variable_leaves_series_unchanged(self):
        for variant in ("naive", "plus", "minus"):
            assert zeta_direct(parse_germ("x^2*y^0"), 12, variant) == zeta_direct(
                parse_germ("x^2"), 12, variant
            )

    def test_error_carries_offending_order(self):
        with pytest.raises(UnsupportedGermError) as exc:
            zeta_direct(parse_germ("x^2+y^2-z^2"), 8)
        assert exc.value.n == 2


class TestOracle:
    def test_monomial_counts_match_beta(self):
        for text, n, q in [
            ("x^2*y^3", 5, 3),
            ("x^2*y^3", 7, 3),
            ("x^1*y^1", 4, 5),
            ("x^4", 8, 7),
        ]:
            g = parse_germ(text)
            assert count_jets_with_order(g, n, q) == jet_beta(g, n).evaluate(q)

    def test_matches_pure_python_composition(self):
        g = parse_germ("x^2-y^2")
        assert count_jets_with_order(g, 3, 3) == brute_force_diagonal_jets(
            g.terms, 3, 3
        )

    def test_cap(self):
        with pytest.raises(UnsupportedComputationError):
            count_jets_with_order(parse_germ("x^2+y^2+z^2"), 4, 7)

    def test_prime_fields_only(self):
        with pytest.raises(UnsupportedComputationError):
            count_jets_with_order(parse_germ("x^2"), 2, 9)

    def test_huge_n_rejected_without_forming_the_power(self):
        with pytest.raises(UnsupportedComputationError, match="cap"):
            count_jets_with_order(parse_germ("x^2"), 10**8, 3)
        with pytest.raises(UnsupportedComputationError, match="prime"):
            count_jets_with_order(parse_germ("x^2"), 10**8, 1)
